import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quotamaj import core, oracle
from quotamaj import Alternative, CountTable, FullTable, Preference, QuotaSeq, to_table
from quotamaj import subset_to_proper
from quotamaj.cli import BUDGET_EXCEEDED, INVALID_INPUT, OK, OUTPUT_CLOSED, PROPERTY_VIOLATED, main
from quotamaj.fileformats import format_count_table, format_full_table
from quotamaj.oracle import expand_to_full

from helpers import dictator, majority3, manipulable3, run

A, B = Alternative.A, Alternative.B


def parsed(capsys, call):
    """Exit code, stdout and stderr of a call that argparse may end."""
    try:
        code = call()
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Command lines, each with the exit code, stdout and stderr it printed when
# it was recorded, byte for byte, and, where it reads files, a mapping from
# each file's name to its contents, which the test writes into the working
# directory.  The help and usage errors were recorded when a line naming a
# command built the parser of that command alone and any other line the
# parser of all seven; the one parser of all seven must give the same bytes
# for both.  argparse wraps help to the terminal's width, which the test
# fixes at 80 columns.
USAGE = "usage: quotamaj [-h] {eval,canon,enum,count,verify,represent,convert} ...\n"
HELP = (
    USAGE + "\n"
    "Quota-sequence voting rules: evaluate, canonicalize, enumerate, verify,\n"
    "represent, and convert.\n"
    "\n"
    "positional arguments:\n"
    "  {eval,canon,enum,count,verify,represent,convert}\n"
    "    eval                evaluate a sequence on one count profile\n"
    "    canon               reduce a sequence to proper form, or build one from a\n"
    "                        subset\n"
    "    enum                enumerate the full rule family\n"
    "    count               print the number of rules, 2^(n+1)\n"
    "    verify              check anonymity, strategy-proofness, and ontoness of a\n"
    "                        table\n"
    "    represent           extract the proper sequence from a table\n"
    "    convert             convert between a proper sequence and an indifference-\n"
    "                        quota rule\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
VERIFY_USAGE = "usage: quotamaj verify [-h] --table TABLE\n"
CONVERT_NOT_BOTH = "error: give either a sequence or --default/--r/--thresholds, not both\n"
CANON_NOT_BOTH = "error: give either --subset with --default or a quota sequence, not both\n"
SEQ_FILE = "n=11\n5,2,7,12\n"
UNDECODABLE = b"n=1\n0 0 \xff\n"
RECORDED_LINES = {
    "eval-worked": (["eval", "--n", "11", "--quotas", "5,2,12", "--na", "3", "--nb", "6"], 0, "a (lambda=1)\n", ""),
    "eval-worked-b": (["eval", "--n", "11", "--quotas", "5,2,12", "--na", "3", "--nb", "7"], 0, "b (lambda=0)\n", ""),
    "eval-constant": (["eval", "--n", "11", "--quotas", "12", "--na", "0", "--nb", "0"], 0, "b (lambda=0)\n", ""),
    # eval never tabulates, so it takes any n
    "eval-huge-n": (
        ["eval", "--n", "1000000000", "--quotas", "5,2,1000000001", "--na", "3", "--nb", "6"], 0, "a (lambda=1)\n", "",
    ),
    "eval-no-terminal": (["eval", "--n", "11", "--quotas", "5,2", "--na", "0", "--nb", "0"], 2, "", (
        "error: quota sequence needs an element in {0, n+1}; otherwise some profiles are never decided\n"
    )),
    "eval-counts-over-n": (["eval", "--n", "3", "--quotas", "2,4", "--na", "2", "--nb", "2"], 2, "", (
        "error: support counts (2, 2) exceed society size 3\n"
    )),
    "eval-without-n": (["eval", "--quotas", "5,2,12", "--na", "3", "--nb", "6"], 2, "", (
        "error: society size is required (--n)\n"
    )),
    "eval-bad-quotas": (["eval", "--n", "5", "--quotas", "3,x", "--na", "0", "--nb", "0"], 2, "", (
        "error: --quotas must be a comma-separated list of integers, got '3,x'\n"
    )),
    "canon-quotas": (["canon", "--n", "11", "--quotas", "5,2,7,12"], 0, "5,2,12\n", ""),
    "canon-subset": (["canon", "--n", "11", "--subset", "2,5"], 0, "5,2,12\n", ""),
    "canon-subset-default-b": (["canon", "--n", "11", "--subset", "2,5", "--default", "b"], 0, "5,2,12\n", ""),
    "canon-empty-subset": (["canon", "--n", "11", "--subset", "-", "--default", "a"], 0, "0\n", ""),
    # canonicalizing a sequence never builds anything sized by n, so it takes any n
    "canon-huge-n": (["canon", "--n", "1000000000", "--quotas", "0"], 0, "0\n", ""),
    "canon-no-rule": (["canon", "--n", "11"], 2, "", "error: a quota sequence is required (--quotas or --seq-file)\n"),
    "canon-quotas-default-a": (["canon", "--n", "11", "--quotas", "5,2,12", "--default", "a"], 2, "", CANON_NOT_BOTH),
    "canon-quotas-default-b": (["canon", "--n", "11", "--quotas", "5,2,12", "--default", "b"], 2, "", CANON_NOT_BOTH),
    "canon-bad-subset": (["canon", "--n", "5", "--subset", "1,,2"], 2, "", (
        "error: --subset must be a comma-separated list of integers, got '1,,2'\n"
    )),
    "canon-default-c": (["canon", "--n", "5", "--subset", "1", "--default", "c"], 2, "", (
        "error: default must be 'a' or 'b', got 'c'\n"
    )),
    "canon-subset-without-n": (["canon", "--subset", "1"], 2, "", "error: society size is required (--n)\n"),
    "canon-seq-file": (["canon", "--seq-file", "rule.seq"], 0, "5,2,12\n", "", {"rule.seq": SEQ_FILE}),
    "eval-seq-file": (
        ["eval", "--seq-file", "rule.seq", "--na", "3", "--nb", "6"], 0, "a (lambda=1)\n", "", {"rule.seq": SEQ_FILE},
    ),
    "eval-seq-file-other-n": (
        ["eval", "--n", "5", "--seq-file", "rule.seq", "--na", "0", "--nb", "0"], 2, "",
        "error: --n 5 contradicts the file's n=11\n", {"rule.seq": SEQ_FILE},
    ),
    "canon-seq-file-and-quotas": (
        ["canon", "--seq-file", "rule.seq", "--quotas", "5,2,12"], 2, "",
        "error: give either --quotas or --seq-file, not both\n", {"rule.seq": SEQ_FILE},
    ),
    "canon-undecodable": (["canon", "--seq-file", "latin1.txt"], 2, "", (
        "error: cannot read sequence file latin1.txt: 'utf-8' codec can't decode byte 0xff in position 8: "
        "invalid start byte\n"
    ), {"latin1.txt": UNDECODABLE}),
    "count-3": (["count", "--n", "3"], 0, "16\n", ""),
    "count-11": (["count", "--n", "11"], 0, "4096\n", ""),
    "count-negative": (["count", "--n", "-5"], 2, "", "error: society size must be at least 1, got -5\n"),
    "count-0": (["count", "--n", "0"], 2, "", "error: society size must be at least 1, got 0\n"),
    "convert-to-rule": (["convert", "--n", "11", "--quotas", "5,2,12"], 0, "default=b r=10 y=2,2,2,2,2,2,2,3,4,5\n", ""),
    "convert-to-sequence": (
        ["convert", "--n", "11", "--default", "b", "--r", "10", "--thresholds", "2,2,2,2,2,2,2,3,4,5"], 0, "5,2,12\n", "",
    ),
    # only convert --quotas reads the rule's table, so only it refuses a huge n
    "convert-huge-n-to-rule": (["convert", "--n", "1000000000", "--quotas", "1,1000000001"], 4, "", (
        "error: a table for n=1000000000 has 500000001500000001 profiles, budget is 16777216\n"
    )),
    "convert-huge-n-to-sequence": (
        ["convert", "--n", "1000000000", "--default", "a", "--r", "1", "--thresholds", "1"], 0, "1,0\n", "",
    ),
    "convert-constant": (["convert", "--n", "11", "--quotas", "12"], 2, "", (
        "error: constant rules have no indifference-quota form\n"
    )),
    "convert-quotas-and-rule": (
        ["convert", "--n", "11", "--quotas", "5,2,12", "--default", "a", "--r", "3", "--thresholds", "1,2,3"],
        2, "", CONVERT_NOT_BOTH,
    ),
    "convert-quotas-and-r": (["convert", "--n", "11", "--quotas", "5,2,12", "--r", "3"], 2, "", CONVERT_NOT_BOTH),
    "convert-quotas-and-default": (
        ["convert", "--n", "11", "--quotas", "5,2,12", "--default", "b"], 2, "", CONVERT_NOT_BOTH,
    ),
    "convert-bad-thresholds": (["convert", "--n", "5", "--default", "a", "--r", "2", "--thresholds", "1;2"], 2, "", (
        "error: --thresholds must be a comma-separated list of integers, got '1;2'\n"
    )),
    "convert-r-without-thresholds": (["convert", "--n", "5", "--default", "a", "--r", "1"], 2, "", (
        "error: converting a rule needs --default, --r and --thresholds\n"
    )),
    "convert-rule-without-n": (["convert", "--default", "a", "--r", "1", "--thresholds", "1"], 2, "", (
        "error: society size is required (--n)\n"
    )),
    "convert-bare": (["convert"], 2, "", (
        "error: convert needs a sequence (to a rule) or --r/--thresholds (to a sequence)\n"
    )),
    # the budget is decided from n alone, without forming 2**(n+1)
    "enum-30": (["enum", "--n", "30"], 4, "", "error: enumerating n=30 yields 2**31 rules, budget is 65536\n"),
    "enum-20000": (["enum", "--n", "20000"], 4, "", (
        "error: enumerating n=20000 yields 2**20001 rules, budget is 65536\n"
    )),
    "enum-1000000000": (["enum", "--n", "1000000000"], 4, "", (
        "error: enumerating n=1000000000 yields 2**1000000001 rules, budget is 65536\n"
    )),
    "enum-16": (["enum", "--n", "16"], 4, "", "error: enumerating n=16 yields 2**17 rules, budget is 65536\n"),
    "enum-0": (["enum", "--n", "0"], 2, "", "error: society size must be at least 1, got 0\n"),
    "enum-unwritable-out": (["enum", "--n", "2", "--out", "missing/family.txt"], 2, "", (
        "error: cannot write output file missing/family.txt: [Errno 2] No such file or directory: "
        "'missing/family.txt'\n"
    )),
    "empty": ([], 2, "", USAGE + "quotamaj: error: the following arguments are required: command\n"),
    "h": (["-h"], 0, HELP, ""),
    "help": (["--help"], 0, HELP, ""),
    "verify-help": (["verify", "-h"], 0, (
        VERIFY_USAGE + "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --table TABLE  table file (count or full, text or JSON)\n"
    ), ""),
    "verify-no-table": (["verify"], 2, "", (
        VERIFY_USAGE + "quotamaj verify: error: the following arguments are required: --table\n"
    )),
    "verify-undecodable": (["verify", "--table", "latin1.txt"], 2, "", (
        "error: cannot read table file latin1.txt: 'utf-8' codec can't decode byte 0xff in position 8: "
        "invalid start byte\n"
    ), {"latin1.txt": UNDECODABLE}),
    "verify-json-bool-n": (["verify", "--table", "table.json"], 2, "", (
        "error: society size must be an integer, got True\n"
    ), {"table.json": '{"n": true, "entries": [{"a": 0, "b": 0, "out": "b"}, {"a": 0, "b": 1, "out": "b"}, '
                      '{"a": 1, "b": 0, "out": "a"}]}'}),
    "verify-json-bool-counts": (["verify", "--table", "table.json"], 2, "", (
        "error: support counts must be integers: {'a': False, 'b': 0, 'out': 'b'}\n"
    ), {"table.json": '{"n": 1, "entries": [{"a": false, "b": 0, "out": "b"}, {"a": 0, "b": true, "out": "b"}, '
                      '{"a": true, "b": 0, "out": "a"}]}'}),
    "verify-json-float-counts": (["verify", "--table", "table.json"], 2, "", (
        "error: support counts must be integers: {'a': 0.0, 'b': 0, 'out': 'b'}\n"
    ), {"table.json": '{"n": 1, "entries": [{"a": 0.0, "b": 0, "out": "b"}, {"a": 0, "b": 1.0, "out": "b"}, '
                      '{"a": 1.0, "b": 0, "out": "a"}]}'}),
    "verify-json-list-count": (["verify", "--table", "table.json"], 2, "", (
        "error: support counts must be integers: {'a': [0], 'b': 0, 'out': 'b'}\n"
    ), {"table.json": '{"n": 1, "entries": [{"a": [0], "b": 0, "out": "b"}, {"a": 0, "b": 1, "out": "b"}, '
                      '{"a": 1, "b": 0, "out": "a"}]}'}),
    # one profile of the header's length: only the entry count is wrong, and
    # the size is checked without forming 3**20000
    "verify-full-n20000-text": (["verify", "--table", "huge.tbl"], 2, "", (
        "error: table for n=20000 needs 3**20000 entries, got 1\n"
    ), {"huge.tbl": "n=20000\n" + "a" * 20000 + " a\n"}),
    "verify-full-n20000-structured": (["verify", "--table", "huge.tbl"], 2, "", (
        "error: table for n=20000 needs 3**20000 entries, got 1\n"
    ), {"huge.tbl": '{"n": 20000, "entries": [{"profile": "' + "a" * 20000 + '", "out": "a"}]}'}),
    # tests/test_errors.py holds the refusals of 8, 4 and 9 outcomes
    "verify-full-short": (["verify", "--table", "short.tbl"], 2, "", (
        "error: table for n=2 needs 3**2 entries, got 6\n"
    ), {"short.tbl": "n=2\n" + "".join(f"{p}{q} a\n" for p in "abi" for q in "ab")}),
    # Count tables in the canonical order for fewer than one voter: the
    # whole-table pass must leave them to the per-entry checks, which refuse
    # the size, and not build a table for zero voters or fail on its grid.
    **{
        f"{command}-count-{case}": ([command, "--table", "table"], 2, "", (
            f"error: society size must be at least 1, got {n}\n"
        ), {"table": text})
        for command in ("verify", "represent")
        for case, text, n in (
            ("n0-text", "n=0\n0 0 a\n", 0),
            ("n0-structured", '{"n": 0, "entries": [{"a": 0, "b": 0, "out": "a"}]}', 0),
            ("n-1-text", "n=-1\n", -1),
        )
    },
    "enum-bad-format": (["enum", "--n", "3", "--format", "xml"], 2, "", (
        "usage: quotamaj enum [-h] --n N [--out OUT] [--format {text,structured}]\n"
        "quotamaj enum: error: argument --format: invalid choice: 'xml' (choose from 'text', 'structured')\n"
    )),
    "extra-argument": (["count", "--n", "3", "extra"], 2, "", (
        USAGE + "quotamaj: error: unrecognized arguments: extra\n"
    )),
    "unknown": (["frobnicate"], 2, "", (
        USAGE + "quotamaj: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'eval', 'canon', 'enum', 'count', 'verify', 'represent', 'convert')\n"
    )),
    "equals": (["count", "--n=5"], 0, "64\n", ""),
    "repeated": (["count", "--n", "3", "--n", "4"], 0, "32\n", ""),
}


@pytest.mark.parametrize("name", list(RECORDED_LINES))
def test_each_command_line_prints_what_it_printed_before(capsys, monkeypatch, tmp_path, name):
    argv, code, out, err, *files = RECORDED_LINES[name]
    for file, contents in dict(*files).items():
        (tmp_path / file).write_bytes(contents if isinstance(contents, bytes) else contents.encode())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(capsys, lambda: main(argv)) == (code, out, err)


def test_exit_codes_keep_their_documented_numbers():
    assert (OK, OUTPUT_CLOSED, INVALID_INPUT, PROPERTY_VIOLATED, BUDGET_EXCEEDED) == (0, 1, 2, 3, 4)


def contrarian(p):
    # voter 0 decides unless indifferent; then voter 1's favourite loses
    if p[0] is not Preference.INDIFFERENT:
        return dictator(p)
    return B if p[1] is Preference.A else A


def test_represent_runs_the_oracle_once(layers, tmp_path, capsys, monkeypatch):
    calls = []
    find = oracle.find_manipulation

    def counting(table):
        calls.append(table)
        return find(table)

    monkeypatch.setattr(oracle, "find_manipulation", counting)
    code, out, _ = run(capsys, "represent", "--table", layers.worked_table(tmp_path))
    assert code == OK and out.splitlines()[0] == "5,2,12"
    assert len(calls) == 1


def test_header_size_is_checked_before_profiles_are_built(tmp_path, capsys, monkeypatch):
    built = []
    profiles = core.all_count_profiles

    def recording(n):
        built.append(n)
        return profiles(n)

    monkeypatch.setattr(core, "all_count_profiles", recording)
    path = tmp_path / "huge.tbl"
    path.write_text("n=1500\n")
    code, _, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT and "needs" in err
    assert 1500 not in built


def test_module_entry_point(layers):
    proc = layers.run_expecting(OK, ["-m", "quotamaj", "count", "--n", "3"], stdout=subprocess.PIPE)
    assert proc.stdout == "16\n"


def test_closed_output_exits_1_without_a_traceback(layers):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        proc = layers.run_expecting(OUTPUT_CLOSED, ["-m", "quotamaj", "enum", "--n", "3"], stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", ["20000", "1000000000"])
def test_count_too_long_to_print_is_refused_before_computing(capsys, n):
    code, out, err = run(capsys, "count", "--n", n)
    assert code == INVALID_INPUT and out == ""
    assert "set_int_max_str_digits" not in err
    assert "largest n that prints is" in err


def test_count_prints_thousands_of_digits(capsys):
    code, out, _ = run(capsys, "count", "--n", "14000")
    assert code == OK and out == f"{2 ** 14001}\n" and len(out) == 4215 + 1


def test_count_digit_limit_boundary(capsys, monkeypatch):
    # 2**33 = 8589934592 has 10 digits and 2**34 has 11
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 10)
    code, out, _ = run(capsys, "count", "--n", "32")
    assert code == OK and out == "8589934592\n"
    code, out, err = run(capsys, "count", "--n", "33")
    assert code == INVALID_INPUT and out == "" and "largest n that prints is 32" in err


def test_deeply_nested_json_table_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"n": 3, "entries": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT and out == "" and "bad JSON table" in err


def test_table_size_limit_boundary(capsys, monkeypatch):
    # n=5 has 21 count profiles and n=6 has 28
    monkeypatch.setattr(core, "MAX_TABLE_PROFILES", core.count_table_size(5))
    code, out, _ = run(capsys, "convert", "--n", "5", "--quotas", "3,0")
    assert code == OK and out == "default=a r=3 x=1,2,3\n"
    code, out, err = run(capsys, "convert", "--n", "6", "--quotas", "3,0")
    assert code == BUDGET_EXCEEDED and out == "" and "has 28 profiles, budget is 21" in err
    # canonicalizing builds no table, so the limit does not apply
    code, out, _ = run(capsys, "canon", "--n", "6", "--quotas", "3,0")
    assert code == OK and out == "3,0\n"


def command_lines_written_in(path):
    """The command lines that the test file at `path` writes out: the
    arguments after capsys of each `run` call, and each list that holds a
    string; an argument computed when the test runs reads 'FILE'."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run":
            words = node.args[1:]
        elif isinstance(node, ast.List) and any(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            words = node.elts
        else:
            continue
        lines.append([e.value if isinstance(e, ast.Constant) and isinstance(e.value, str) else "FILE" for e in words])
    return lines


def test_the_table_reader_reads_every_written_command_line_as_argparse_does(layers):
    from quotamaj import cli

    # the lines this file writes out, and the layer harness's, which tests/test_package.py runs
    tool = [args[2:] for args, _ in layers.startup_commands("worked.tbl").values() if args[1] == layers.RUNNER]
    accepted = 0
    for argv in command_lines_written_in(Path(__file__)) + tool:
        args = cli._read_command_line(argv)
        if args is not None:
            accepted += 1
            assert vars(args) == vars(cli._build_parser().parse_args(argv)), argv
    assert accepted >= 50


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--tab", "worked.tbl"],
        ["count", "--n=5"],
        ["count", "--n", "3", "--n", "4"],
        ["canon", "--n", "3", "--quotas", "-1,2"],
        ["count", "--n", "-3"],
        ["count", "--n", "3", "--"],
        ["canon", "--n", "3", "--quotas", "--"],
        ["canon", "--n", "3", "--quotas", "-"],
        ["verify", "--n", "3"],
        ["enum", "--n", "3", "--format", "xml"],
    ],
    ids=["abbreviated", "equals", "repeated", "negative-list", "negative-int", "trailing-dashes",
         "dashes-value", "dash-value", "foreign-flag", "bad-choice"],
)
def test_the_table_reader_leaves_every_other_line_to_argparse(argv):
    from quotamaj import cli

    assert cli._read_command_line(argv) is None


def test_the_table_reader_reads_every_benchmark_command_line(tmp_path, monkeypatch):
    # argparse serves only help and usage errors: every line that the
    # benchmark's workloads send is read from the option table
    from quotamaj import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    argvs = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            work = tmp_path / f"{workload}-{seed}"
            work.mkdir()
            argvs += [c.argv for r in range(3) for c in workloads.build_round(workload, seed, r, work)]
    assert len(argvs) > 1000  # 1,251 when this test was written
    assert [argv for argv in argvs if cli._read_command_line(argv) is None] == []


# `verify` and `represent` on count and full tables in both formats, on
# malformed files and on a full table too large to scan: the outputs and
# exit codes below were recorded from both commands when each read its
# table by a path of its own, and one loader must keep them byte for byte.
# The count-majority rows were recorded later, from the one loader.


RECORDED_TABLES = {
    "count-sp": lambda: to_table(QuotaSeq(11, (5, 2, 12))),
    "count-manipulable": manipulable3,
    "count-majority": majority3,
    "full-sp": lambda: expand_to_full(majority3()),
    "full-manipulable": lambda: expand_to_full(manipulable3()),
    "full-dictator": lambda: FullTable.from_function(2, dictator),
    "full-contrarian": lambda: FullTable.from_function(2, contrarian),
}
MALFORMED = {
    "empty": "",
    "header": "m=1\n0 0 b\n0 1 b\n1 0 a\n",
    "mixed": "n=1\n0 0 b\nab a\n",
    "outcome": "n=1\n0 0 b\n0 1 c\n1 0 a\n",
    "missing-entry": "n=1\n0 0 b\n0 1 b\n",
    "json": '{"n": 1, "entries": [',
    "json-fields": '{"n": 1}',
}


def recorded_file(case, fmt):
    """The name of the file of one recorded case, written into the working
    directory; the case "absent" names no file."""
    if case == "absent":
        return "absent.tbl"
    if case in MALFORMED:
        text = MALFORMED[case]
    elif case == "full-dictator-n11":
        # voter 0 decides: the first third of the profiles starts with a
        table = FullTable(11, (A,) * 3**10 + (B,) * (2 * 3**10))
        text = format_full_table(table, fmt)
    else:
        table = RECORDED_TABLES[case]()
        text = (format_count_table if case.startswith("count") else format_full_table)(table, fmt)
    name = f"{case}.{'json' if fmt == 'structured' else 'tbl'}"
    Path(name).write_text(text, encoding="utf-8")
    return name


RECORDED = {
    "verify count-sp text": (0, "anonymous: yes (count table)\nstrategy-proof: yes\nonto: yes\n", ""),
    "verify count-sp structured": (0, "anonymous: yes (count table)\nstrategy-proof: yes\nonto: yes\n", ""),
    "verify count-majority text": (0, "anonymous: yes (count table)\nstrategy-proof: yes\nonto: yes\n", ""),
    "verify count-majority structured": (0, "anonymous: yes (count table)\nstrategy-proof: yes\nonto: yes\n", ""),
    "verify count-manipulable text": (
        3, "anonymous: yes (count table)\nstrategy-proof: no (at na=2 nb=1, a-voter misreporting as i turns b into a)\nonto: yes\n",
        "error: verification found a counterexample\n",
    ),
    "verify count-manipulable structured": (
        3, "anonymous: yes (count table)\nstrategy-proof: no (at na=2 nb=1, a-voter misreporting as i turns b into a)\nonto: yes\n",
        "error: verification found a counterexample\n",
    ),
    "verify full-sp text": (0, "anonymous: yes\nstrategy-proof: yes\nonto: yes\n", ""),
    "verify full-sp structured": (0, "anonymous: yes\nstrategy-proof: yes\nonto: yes\n", ""),
    "verify full-manipulable text": (
        3, "anonymous: yes\nstrategy-proof: no (at na=2 nb=1, a-voter misreporting as i turns b into a)\nonto: yes\n",
        "error: verification found a counterexample\n",
    ),
    "verify full-manipulable structured": (
        3, "anonymous: yes\nstrategy-proof: no (at na=2 nb=1, a-voter misreporting as i turns b into a)\nonto: yes\n",
        "error: verification found a counterexample\n",
    ),
    "verify full-dictator text": (
        3, "anonymous: no\nstrategy-proof: yes\n",
        "error: verification found a counterexample\n",
    ),
    "verify full-dictator structured": (
        3, "anonymous: no\nstrategy-proof: yes\n",
        "error: verification found a counterexample\n",
    ),
    "verify full-contrarian text": (
        3, "anonymous: no\nstrategy-proof: no (at profile ia, voter 1 (a) misreporting as b turns b into a)\n",
        "error: verification found a counterexample\n",
    ),
    "verify full-contrarian structured": (
        3, "anonymous: no\nstrategy-proof: no (at profile ia, voter 1 (a) misreporting as b turns b into a)\n",
        "error: verification found a counterexample\n",
    ),
    "verify full-dictator-n11 text": (
        3, "anonymous: no\nstrategy-proof: yes\n",
        "error: verification found a counterexample\n",
    ),
    "verify empty text": (2, "", "error: empty table file\n"),
    "verify header text": (2, "", "error: expected a 'n=<size>' header, got 'm=1'\n"),
    "verify mixed text": (2, "", "error: table mixes count-profile and full-profile lines\n"),
    "verify outcome text": (2, "", "error: outcome must be 'a' or 'b', got 'c'\n"),
    "verify missing-entry text": (2, "", "error: table for n=1 needs 3 entries, got 2\n"),
    "verify json text": (2, "", "error: bad JSON table: Expecting value: line 1 column 22 (char 21)\n"),
    "verify json-fields text": (2, "", "error: structured table needs 'n' and 'entries' fields\n"),
    "verify absent text": (
        2, "",
        "error: cannot read table file absent.tbl: [Errno 2] No such file or directory: 'absent.tbl'\n",
    ),
    "represent count-sp text": (0, "5,2,12\nx=b; (l,k)=(0,5),(1,4),(2,3),(3,2)\n", ""),
    "represent count-sp structured": (0, "5,2,12\nx=b; (l,k)=(0,5),(1,4),(2,3),(3,2)\n", ""),
    "represent count-majority text": (0, "2,3,1,4\nx=b; (l,k)=(0,2),(2,1)\n", ""),
    "represent count-majority structured": (0, "2,3,1,4\nx=b; (l,k)=(0,2),(2,1)\n", ""),
    "represent count-manipulable text": (
        3, "",
        "error: table is manipulable: at na=2 nb=1, a-voter misreporting as i turns b into a\n",
    ),
    "represent count-manipulable structured": (
        3, "",
        "error: table is manipulable: at na=2 nb=1, a-voter misreporting as i turns b into a\n",
    ),
    "represent full-sp text": (0, "2,3,1,4\nx=b; (l,k)=(0,2),(2,1)\n", ""),
    "represent full-sp structured": (0, "2,3,1,4\nx=b; (l,k)=(0,2),(2,1)\n", ""),
    "represent full-manipulable text": (
        3, "",
        "error: table is manipulable: at na=2 nb=1, a-voter misreporting as i turns b into a\n",
    ),
    "represent full-manipulable structured": (
        3, "",
        "error: table is manipulable: at na=2 nb=1, a-voter misreporting as i turns b into a\n",
    ),
    "represent full-dictator text": (
        3, "",
        "error: table is not anonymous: two profiles with equal counts disagree\n",
    ),
    "represent full-dictator structured": (
        3, "",
        "error: table is not anonymous: two profiles with equal counts disagree\n",
    ),
    "represent full-contrarian text": (
        3, "",
        "error: table is not anonymous: two profiles with equal counts disagree\n",
    ),
    "represent full-contrarian structured": (
        3, "",
        "error: table is not anonymous: two profiles with equal counts disagree\n",
    ),
    "represent full-dictator-n11 text": (
        3, "",
        "error: table is not anonymous: two profiles with equal counts disagree\n",
    ),
    "represent empty text": (2, "", "error: empty table file\n"),
    "represent header text": (2, "", "error: expected a 'n=<size>' header, got 'm=1'\n"),
    "represent mixed text": (2, "", "error: table mixes count-profile and full-profile lines\n"),
    "represent outcome text": (2, "", "error: outcome must be 'a' or 'b', got 'c'\n"),
    "represent missing-entry text": (2, "", "error: table for n=1 needs 3 entries, got 2\n"),
    "represent json text": (2, "", "error: bad JSON table: Expecting value: line 1 column 22 (char 21)\n"),
    "represent json-fields text": (2, "", "error: structured table needs 'n' and 'entries' fields\n"),
    "represent absent text": (
        2, "",
        "error: cannot read table file absent.tbl: [Errno 2] No such file or directory: 'absent.tbl'\n",
    ),
}


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_verify_and_represent_print_what_they_printed_before(tmp_path, monkeypatch, capsys, key):
    command, case, fmt = key.split()
    monkeypatch.chdir(tmp_path)
    assert run(capsys, command, "--table", recorded_file(case, fmt)) == RECORDED[key]


def test_represent_refuses_exactly_the_full_tables_verify_finds_not_anonymous(tmp_path, capsys):
    refused = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            subset = {v for v in range(1, n + 1) if rng.random() < 0.5}
            count = to_table(subset_to_proper(subset, rng.choice((A, B)), n))
        else:
            count = CountTable(n, tuple(rng.choice((A, B)) for _ in range((n + 1) * (n + 2) // 2)))
        outcomes = list(expand_to_full(count).outcomes)
        # a flip in a class of one profile, or two that cancel, leave the table anonymous
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(len(outcomes))
            outcomes[i] = outcomes[i].other
        path = tmp_path / f"full{seed}.tbl"
        path.write_text(format_full_table(FullTable(n, tuple(outcomes))))
        _, verified, _ = run(capsys, "verify", "--table", str(path))
        _, _, err = run(capsys, "represent", "--table", str(path))
        not_anonymous = err == "error: table is not anonymous: two profiles with equal counts disagree\n"
        assert ("anonymous: no" in verified.splitlines()) == not_anonymous
        refused.append(not_anonymous)
    assert any(refused) and not all(refused)

import ast
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quotamaj import core, oracle
from quotamaj import Alternative, CountTable, FullTable, Preference, QuotaSeq, enumerate_all, to_table
from quotamaj import subset_to_proper
from quotamaj.cli import BUDGET_EXCEEDED, INVALID_INPUT, OK, OUTPUT_CLOSED, PROPERTY_VIOLATED, main
from quotamaj.fileformats import format_count_table, format_full_table
from quotamaj.oracle import expand_to_full

from helpers import majority3, manipulable3, run

A, B = Alternative.A, Alternative.B


def test_eval_worked_rule(capsys):
    code, out, _ = run(capsys, "eval", "--n", "11", "--quotas", "5,2,12", "--na", "3", "--nb", "6")
    assert code == OK and out == "a (lambda=1)\n"
    code, out, _ = run(capsys, "eval", "--n", "11", "--quotas", "12", "--na", "0", "--nb", "0")
    assert code == OK and out == "b (lambda=0)\n"
    code, out, _ = run(capsys, "eval", "--n", "11", "--quotas", "5,2,12", "--na", "3", "--nb", "7")
    assert code == OK and out == "b (lambda=0)\n"


def test_eval_rejects_bad_input(capsys):
    code, _, err = run(capsys, "eval", "--n", "11", "--quotas", "5,2", "--na", "0", "--nb", "0")
    assert code == INVALID_INPUT and "error:" in err
    code, _, err = run(capsys, "eval", "--n", "3", "--quotas", "2,4", "--na", "2", "--nb", "2")
    assert code == INVALID_INPUT and "error:" in err


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "--n", "11", "--quotas", "5,2,7,12")
    assert code == OK and out == "5,2,12\n"
    code, out, _ = run(capsys, "canon", "--n", "11", "--subset", "2,5")
    assert code == OK and out == "5,2,12\n"
    code, out, _ = run(capsys, "canon", "--n", "11", "--subset", "-", "--default", "a")
    assert code == OK and out == "0\n"
    code, _, err = run(capsys, "canon", "--n", "11")
    assert code == INVALID_INPUT and "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--n", "5", "--quotas", "3,x", "--na", "0", "--nb", "0"],
         "--quotas must be a comma-separated list of integers, got '3,x'"),
        (["canon", "--n", "5", "--subset", "1,,2"],
         "--subset must be a comma-separated list of integers, got '1,,2'"),
        (["convert", "--n", "5", "--default", "a", "--r", "2", "--thresholds", "1;2"],
         "--thresholds must be a comma-separated list of integers, got '1;2'"),
        (["canon", "--n", "5", "--subset", "1", "--default", "c"], "default must be 'a' or 'b', got 'c'"),
        (["canon", "--subset", "1"], "society size is required (--n)"),
        (["convert", "--n", "5", "--default", "a", "--r", "1"],
         "converting a rule needs --default, --r and --thresholds"),
        (["convert", "--default", "a", "--r", "1", "--thresholds", "1"], "society size is required (--n)"),
        (["convert"], "convert needs a sequence (to a rule) or --r/--thresholds (to a sequence)"),
    ],
    ids=["quotas", "subset", "thresholds", "default-c", "subset-without-n", "r-without-thresholds",
         "rule-without-n", "bare-convert"],
)
def test_flag_errors_exit_2_with_their_own_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == INVALID_INPUT and out == "" and err == f"error: {message}\n"


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "3")
    assert code == OK and out == "16\n"
    code, out, _ = run(capsys, "count", "--n", "11")
    assert code == OK and out == "4096\n"


def test_enum_to_file(tmp_path, capsys):
    out_file = tmp_path / "family.txt"
    code, _, _ = run(capsys, "enum", "--n", "2", "--out", str(out_file))
    assert code == OK
    lines = out_file.read_text().splitlines()
    assert lines[0] == "n=2" and lines[1] == "count=8"
    assert len(lines) == 10
    # stable bytes across runs
    code, _, _ = run(capsys, "enum", "--n", "2", "--out", str(out_file))
    assert out_file.read_text().splitlines() == lines


def test_enum_structured(tmp_path, capsys):
    out_file = tmp_path / "family.json"
    code, _, _ = run(capsys, "enum", "--n", "1", "--out", str(out_file), "--format", "structured")
    assert code == OK
    data = json.loads(out_file.read_text())
    assert data["count"] == 4
    assert data["family"][0]["table"] == "bbb"


def test_verify_good_table(tmp_path, capsys):
    path = tmp_path / "majority.tbl"
    path.write_text(format_count_table(majority3()))
    code, out, _ = run(capsys, "verify", "--table", str(path))
    assert code == OK
    assert out == "anonymous: yes (count table)\nstrategy-proof: yes\nonto: yes\n"


def test_verify_manipulable_table(tmp_path, capsys):
    path = tmp_path / "broken.tbl"
    path.write_text(format_count_table(manipulable3()))
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == PROPERTY_VIOLATED
    assert "strategy-proof: no" in out and "error:" in err


def test_verify_non_anonymous_table(tmp_path, capsys):
    from quotamaj import FullTable, Preference

    dictator = FullTable.from_function(
        2, lambda prof: A if prof[0] is Preference.A else B
    )
    path = tmp_path / "dictator.tbl"
    path.write_text(format_full_table(dictator))
    code, out, _ = run(capsys, "verify", "--table", str(path))
    assert code == PROPERTY_VIOLATED
    assert "anonymous: no" in out


def test_verify_full_anonymous_table(tmp_path, capsys):
    path = tmp_path / "full.tbl"
    path.write_text(format_full_table(expand_to_full(majority3())))
    code, out, _ = run(capsys, "verify", "--table", str(path))
    assert code == OK
    assert "anonymous: yes" in out and "strategy-proof: yes" in out


def dictator(p):
    return A if p[0] is Preference.A else B


def contrarian(p):
    # voter 0 decides unless indifferent; then voter 1's favourite loses
    if p[0] is not Preference.INDIFFERENT:
        return dictator(p)
    return B if p[1] is Preference.A else A


WITNESS = re.compile(r"at profile (\w+), voter (\d+) \((\w)\) misreporting as (\w) turns (\w) into (\w)")


@pytest.mark.parametrize("rule", [dictator, contrarian])
def test_verify_and_represent_non_anonymous_full_tables(tmp_path, capsys, rule):
    table = FullTable.from_function(2, rule)
    path = tmp_path / "full.tbl"
    path.write_text(format_full_table(table))
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == PROPERTY_VIOLATED and err == "error: verification found a counterexample\n"
    anonymous, strategy_proof = out.splitlines()  # no onto line without a count table
    assert anonymous == "anonymous: no"
    if rule is dictator:
        assert strategy_proof == "strategy-proof: yes"
    else:
        assert strategy_proof == (
            "strategy-proof: no (at profile ia, voter 1 (a) misreporting as b turns b into a)"
        )
        # replay the printed witness: the misreport wins the voter's favourite
        profile, voter, truth, lie, honest, manipulated = WITNESS.search(strategy_proof).groups()
        voter = int(voter)
        assert profile[voter] == truth == manipulated != honest
        misreported = profile[:voter] + lie + profile[voter + 1 :]
        assert table.outcome(tuple(map(Preference, profile))).value == honest
        assert table.outcome(tuple(map(Preference, misreported))).value == manipulated
    code, out, err = run(capsys, "represent", "--table", str(path))
    assert code == PROPERTY_VIOLATED and out == ""
    assert err == "error: table is not anonymous: two profiles with equal counts disagree\n"


def test_represent(tmp_path, capsys):
    path = tmp_path / "majority.tbl"
    path.write_text(format_count_table(majority3()))
    code, out, _ = run(capsys, "represent", "--table", str(path))
    assert code == OK
    assert out == "2,3,1,4\nx=b; (l,k)=(0,2),(2,1)\n"


def test_represent_worked_rule(layers, tmp_path, capsys):
    code, out, _ = run(capsys, "represent", "--table", layers.worked_table(tmp_path))
    assert code == OK
    assert out.splitlines()[0] == "5,2,12"
    assert out.splitlines()[1] == "x=b; (l,k)=(0,5),(1,4),(2,3),(3,2)"


def test_represent_manipulable_is_property_violation(tmp_path, capsys):
    path = tmp_path / "broken.tbl"
    path.write_text(format_count_table(manipulable3()))
    code, out, err = run(capsys, "represent", "--table", str(path))
    assert code == PROPERTY_VIOLATED and out == ""
    assert err == "error: table is manipulable: at na=2 nb=1, a-voter misreporting as i turns b into a\n"


def test_convert_both_directions(capsys):
    code, out, _ = run(capsys, "convert", "--n", "11", "--quotas", "5,2,12")
    assert code == OK
    assert out == "default=b r=10 y=2,2,2,2,2,2,2,3,4,5\n"
    code, out, _ = run(
        capsys,
        "convert",
        "--n", "11",
        "--default", "b",
        "--r", "10",
        "--thresholds", "2,2,2,2,2,2,2,3,4,5",
    )
    assert code == OK and out == "5,2,12\n"


def test_convert_refuses_a_sequence_with_rule_flags(capsys):
    for flags in (["--default", "a", "--r", "3", "--thresholds", "1,2,3"], ["--r", "3"], ["--default", "b"]):
        code, out, err = run(capsys, "convert", "--n", "11", "--quotas", "5,2,12", *flags)
        assert code == INVALID_INPUT and out == "" and "not both" in err


def test_canon_refuses_default_with_a_sequence(capsys):
    for default in ("a", "b"):
        code, out, err = run(capsys, "canon", "--n", "11", "--quotas", "5,2,12", "--default", default)
        assert code == INVALID_INPUT and out == "" and "not both" in err
    code, out, _ = run(capsys, "canon", "--n", "11", "--subset", "2,5", "--default", "b")
    assert code == OK and out == "5,2,12\n"


def test_convert_rejects_constant(capsys):
    code, _, err = run(capsys, "convert", "--n", "11", "--quotas", "12")
    assert code == INVALID_INPUT and "error:" in err


def test_missing_table_file(capsys):
    code, _, err = run(capsys, "verify", "--table", "/nonexistent/nowhere.tbl")
    assert code == INVALID_INPUT and "cannot read" in err


def test_undecodable_file_is_named(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"n=1\n0 0 \xff\n")
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT and out == ""
    assert f"cannot read table file {path}: 'utf-8' codec can't decode byte 0xff" in err
    code, out, err = run(capsys, "canon", "--seq-file", str(path))
    assert code == INVALID_INPUT and out == ""
    assert f"cannot read sequence file {path}: 'utf-8' codec" in err


def test_enum_budget_exit_code(capsys):
    code, _, err = run(capsys, "enum", "--n", "30")
    assert code == BUDGET_EXCEEDED and "budget" in err


def test_sequence_file_input(tmp_path, capsys):
    from quotamaj.fileformats import format_sequence

    path = tmp_path / "rule.seq"
    path.write_text(format_sequence(QuotaSeq(11, (5, 2, 7, 12))))
    code, out, _ = run(capsys, "canon", "--seq-file", str(path))
    assert code == OK and out == "5,2,12\n"
    code, out, _ = run(capsys, "eval", "--seq-file", str(path), "--na", "3", "--nb", "6")
    assert code == OK and out == "a (lambda=1)\n"
    code, _, err = run(capsys, "eval", "--n", "5", "--seq-file", str(path), "--na", "0", "--nb", "0")
    assert code == INVALID_INPUT and "contradicts" in err
    code, _, err = run(
        capsys, "canon", "--seq-file", str(path), "--quotas", "5,2,12"
    )
    assert code == INVALID_INPUT and "not both" in err


def test_missing_n_is_invalid_input(capsys):
    code, _, err = run(capsys, "eval", "--quotas", "5,2,12", "--na", "3", "--nb", "6")
    assert code == INVALID_INPUT and "society size" in err


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


@pytest.mark.parametrize("n", ["-5", "0"])
def test_count_rejects_empty_societies(capsys, n):
    code, out, err = run(capsys, "count", "--n", n)
    assert code == INVALID_INPUT and out == "" and "society size" in err


@pytest.mark.parametrize(
    "body",
    [
        '{"n": true, "entries": [{"a": 0, "b": 0, "out": "b"}, {"a": 0, "b": 1, "out": "b"}, {"a": 1, "b": 0, "out": "a"}]}',
        '{"n": 1, "entries": [{"a": false, "b": 0, "out": "b"}, {"a": 0, "b": true, "out": "b"}, {"a": true, "b": 0, "out": "a"}]}',
        '{"n": 1, "entries": [{"a": 0.0, "b": 0, "out": "b"}, {"a": 0, "b": 1.0, "out": "b"}, {"a": 1.0, "b": 0, "out": "a"}]}',
        '{"n": 1, "entries": [{"a": [0], "b": 0, "out": "b"}, {"a": 0, "b": 1, "out": "b"}, {"a": 1, "b": 0, "out": "a"}]}',
    ],
    ids=["bool-n", "bool-counts", "float-counts", "list-count"],
)
def test_json_table_rejects_non_integer_sizes_and_counts(tmp_path, capsys, body):
    path = tmp_path / "table.json"
    path.write_text(body)
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT and out == "" and "integer" in err


def parsed(capsys, call):
    """Exit code, stdout and stderr of a call that argparse may end."""
    try:
        code = call()
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Help and usage errors, recorded byte for byte (exit code, stdout, stderr)
# when a line naming a command built the parser of that command alone and
# any other line the parser of all seven; the one parser of all seven must
# give the same bytes for both.  argparse wraps help to the terminal's width,
# which the test fixes at 80 columns.
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
RECORDED_USAGE = {
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


@pytest.mark.parametrize("name", list(RECORDED_USAGE))
def test_one_command_parser_reads_like_the_full_one(capsys, monkeypatch, name):
    argv, *recorded = RECORDED_USAGE[name]
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(capsys, lambda: main(argv)) == tuple(recorded)


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
    assert OUTPUT_CLOSED == 1
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


@pytest.mark.parametrize("n", ["20000", "1000000000"])
def test_enum_budget_is_decided_from_n_alone(capsys, n):
    code, out, err = run(capsys, "enum", "--n", n)
    assert code == BUDGET_EXCEEDED and out == "" and "budget" in err
    assert "set_int_max_str_digits" not in err and f"2**{int(n) + 1}" in err


def test_enum_guard_edge(capsys):
    code, out, err = run(capsys, "enum", "--n", "16")
    assert code == BUDGET_EXCEEDED and out == "" and "2**17" in err and "budget is 65536" in err
    with pytest.raises(ValueError) as expected:
        enumerate_all(0)
    code, out, err = run(capsys, "enum", "--n", "0")
    assert code == INVALID_INPUT and out == "" and err == f"error: {expected.value}\n"


def test_deeply_nested_json_table_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"n": 3, "entries": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT and out == "" and "bad JSON table" in err


def test_enum_to_unwritable_path_is_invalid_input(tmp_path, capsys):
    code, out, err = run(capsys, "enum", "--n", "2", "--out", str(tmp_path / "missing" / "family.txt"))
    assert code == INVALID_INPUT and out == "" and "cannot write" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["canon", "--n", "1000000000", "--quotas", "0"],
        ["convert", "--n", "1000000000", "--quotas", "1,1000000001"],
        ["convert", "--n", "1000000000", "--default", "a", "--r", "1", "--thresholds", "1"],
    ],
)
def test_tabulating_commands_refuse_huge_n_before_allocating(capsys, argv):
    # only convert --quotas reads the rule's table; canonicalizing a
    # sequence never builds anything sized by n, so it takes any n
    code, out, err = run(capsys, *argv)
    if argv[0] == "convert" and "--quotas" in argv:
        assert code == BUDGET_EXCEEDED and out == ""
        assert f"budget is {core.MAX_TABLE_PROFILES}" in err
    else:
        assert code == OK and out == {"canon": "0\n", "convert": "1,0\n"}[argv[0]]


def test_eval_never_tabulates_so_huge_n_succeeds(capsys):
    code, out, _ = run(
        capsys, "eval", "--n", "1000000000", "--quotas", "5,2,1000000001", "--na", "3", "--nb", "6"
    )
    assert code == OK and out == "a (lambda=1)\n"


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


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_full_table_header_size_is_checked_without_forming_3_to_the_n(tmp_path, capsys, fmt):
    # one profile of the header's length: only the entry count is wrong
    n = 20000
    path = tmp_path / "huge.tbl"
    if fmt == "text":
        path.write_text(f"n={n}\n{'a' * n} a\n")
    else:
        path.write_text(json.dumps({"n": n, "entries": [{"profile": "a" * n, "out": "a"}]}))
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT and out == ""
    assert f"n={n}" in err and f"3**{n}" in err
    assert "set_int_max_str_digits" not in err


def test_full_table_size_check_keeps_small_tables_exact(tmp_path, capsys):
    from quotamaj import FullTable
    with pytest.raises(ValueError, match=r"needs 3\*\*2 entries, got 8"):
        FullTable(2, (A,) * 8)
    with pytest.raises(ValueError, match=r"needs 3\*\*1 entries, got 4"):
        FullTable(1, (A,) * 4)
    with pytest.raises(ValueError, match=r"needs 3\*\*1000000 entries, got 9"):
        FullTable.from_mapping(1_000_000, dict.fromkeys(range(9), A))
    assert FullTable(2, (A,) * 9).n == 2
    path = tmp_path / "short.tbl"
    path.write_text("n=2\n" + "".join(f"{p}{q} a\n" for p in "abi" for q in "ab"))
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT and out == "" and "needs 3**2 entries, got 6" in err


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


RECORDED_TABLES = {
    "count-sp": lambda: to_table(QuotaSeq(11, (5, 2, 12))),
    "count-manipulable": manipulable3,
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
        4, "anonymous: no\n",
        "error: full manipulation scan for n=11 exceeds the n<=10 guard\n",
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


# Count tables in the canonical order for fewer than one voter: the
# whole-table pass must leave them to the per-entry checks, which refuse
# the size, and not build a table for zero voters or fail on its grid.
@pytest.mark.parametrize("command", ["verify", "represent"])
@pytest.mark.parametrize(
    "text, n",
    [
        pytest.param("n=0\n0 0 a\n", 0, id="text-n0"),
        pytest.param('{"n": 0, "entries": [{"a": 0, "b": 0, "out": "a"}]}', 0, id="structured-n0"),
        pytest.param("n=-1\n", -1, id="text-n-1"),
    ],
)
def test_count_tables_for_fewer_than_one_voter_are_refused(tmp_path, capsys, command, text, n):
    path = tmp_path / "table"
    path.write_text(text, encoding="utf-8")
    expected = (INVALID_INPUT, "", f"error: society size must be at least 1, got {n}\n")
    assert run(capsys, command, "--table", str(path)) == expected


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

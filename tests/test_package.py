"""The package's public names and what importing it, or running a command, loads.

The import checks run in child interpreters started with `python -S`, so
that no site `.pth` file can preload a module and hide a real import.
"""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import quotamaj
from quotamaj import Alternative, CountTable, QuotaSeq, to_table
from quotamaj.cli import PROPERTY_VIOLATED, main
from quotamaj.fileformats import format_count_table

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = {
    "canonical": ("canonicalize", "delete_dominated", "is_minimal", "truncate"),
    "core": (
        "Alternative", "CountProfile", "CountTable", "FullProfile", "FullTable", "Preference",
        "QuotaSeq", "SearchBudgetExceeded", "all_count_profiles", "all_full_profiles",
        "count_of", "count_table_size",
    ),
    "engine": (
        "dual", "evaluate", "evaluate_strict_quota", "is_proper", "is_valid_r_tuple", "length",
        "profile_index", "to_table",
    ),
    "enumeration": ("enumerate_all", "proper_to_subset", "subset_to_proper"),
    "extraction": (
        "LKSequence", "NotStrategyProof", "covered_a", "covered_b", "extract", "interleave",
        "psi_eval", "represent",
    ),
    "lp": (
        "LPRule", "all_rules", "lp_eval", "lp_to_proper", "lp_to_table", "proper_to_lp",
        "rules_matching_table",
    ),
    "oracle": (
        "CountManipulation", "FullManipulation", "check_anonymous", "check_strategy_proof",
        "check_strategy_proof_full", "exhaustive_sp_family", "expand_to_full",
        "find_manipulation", "find_manipulation_full", "is_onto", "reduce_to_counts",
        "tables_equal",
    ),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)

A, B = Alternative.A, Alternative.B


def test_all_lists_the_public_names():
    assert len(NAMES) == len(set(NAMES)) == 54
    assert quotamaj.__all__ == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_object_of_its_defining_module(module):
    defining = import_module(f"quotamaj.{module}")
    for name in PUBLIC[module]:
        assert getattr(quotamaj, name) is getattr(defining, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from quotamaj import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == NAMES
    assert all(namespace[name] is getattr(quotamaj, name) for name in NAMES)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(quotamaj))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quotamaj.no_such_name
    assert not hasattr(quotamaj, "_exports_of_nothing")


def test_represent_on_a_manipulable_table_exits_3_with_the_counterexample(tmp_path, capsys):
    def rule(p):
        if (p.na, p.nb) == (1, 1):
            return A
        if (p.na, p.nb) == (2, 1):
            return B
        return A if p.na > p.nb else B

    path = tmp_path / "broken.tbl"
    path.write_text(format_count_table(CountTable.from_function(3, rule)))
    assert main(["represent", "--table", str(path)]) == PROPERTY_VIOLATED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: table is manipulable: at na=2 nb=1, a-voter misreporting as i turns b into a\n"
    )


# runs one command, then writes the names of the loaded modules to the file argv[1]
CHILD = (
    "import sys\n"
    "from quotamaj.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w', encoding='utf-8') as out:\n"
    "    out.write('\\n'.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
HEAVY = {"dataclasses", "inspect", "typing"}
LIBRARY_ONLY = {"quotamaj.oracle", "quotamaj.extraction", "quotamaj.lp", "json"}


def loaded_by(tmp_path, script, *argv):
    listing = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(listing), *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text(encoding="utf-8").split("\n")), proc.stdout


def test_importing_the_package_loads_no_submodule(tmp_path):
    script = (
        "import sys, quotamaj\n"
        "with open(sys.argv[1], 'w', encoding='utf-8') as out:\n"
        "    out.write('\\n'.join(sorted(sys.modules)))\n"
    )
    modules, _ = loaded_by(tmp_path, script)
    assert "quotamaj" in modules
    assert sorted(m for m in modules if m.startswith("quotamaj.")) == []
    assert not modules & HEAVY


def test_the_modules_that_defined_the_names_are_attributes_on_first_use(tmp_path):
    script = (
        "import sys, quotamaj\n"
        f"loaded = [getattr(quotamaj, m) is sys.modules['quotamaj.' + m] for m in {sorted(PUBLIC)!r}]\n"
        "with open(sys.argv[1], 'w', encoding='utf-8') as out:\n"
        "    out.write(str(all(loaded)))\n"
    )
    assert loaded_by(tmp_path, script)[0] == {"True"}


def write_table(tmp_path):
    path = tmp_path / "worked.tbl"
    path.write_text(format_count_table(to_table(QuotaSeq(11, (5, 2, 12)))))
    return str(path)


COMMANDS = {
    "eval": (["eval", "--n", "11", "--quotas", "5,2,12", "--na", "3", "--nb", "6"], "a (lambda=1)\n"),
    "count": (["count", "--n", "3"], "16\n"),
    "canon": (["canon", "--n", "11", "--quotas", "5,2,7,12"], "5,2,12\n"),
    "canon-subset": (["canon", "--n", "11", "--subset", "2,5"], "5,2,12\n"),
    "enum": (["enum", "--n", "2"], None),
    "enum-structured": (["enum", "--n", "2", "--format", "structured"], None),
    "verify": (["verify", "--table", "TABLE"], None),
    "represent": (["represent", "--table", "TABLE"], None),
    "convert": (["convert", "--n", "11", "--quotas", "5,2,12"], None),
    "convert-rule": (["convert", "--n", "3", "--default", "a", "--r", "3", "--thresholds", "1,1,2"], None),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_loads_dataclasses_inspect_or_typing(tmp_path, command):
    argv, expected = COMMANDS[command]
    table = write_table(tmp_path)
    modules, out = loaded_by(tmp_path, CHILD, *[table if a == "TABLE" else a for a in argv])
    assert not modules & HEAVY
    if expected is not None:
        assert out == expected


@pytest.mark.parametrize("command", ["eval", "count", "canon"])
def test_sequence_commands_load_no_oracle_extraction_lp_or_json(tmp_path, command):
    modules, _ = loaded_by(tmp_path, CHILD, *COMMANDS[command][0])
    assert not modules & LIBRARY_ONLY


def test_verify_on_a_text_table_loads_no_extraction_lp_or_json(tmp_path):
    modules, out = loaded_by(tmp_path, CHILD, "verify", "--table", write_table(tmp_path))
    assert out == "anonymous: yes (count table)\nstrategy-proof: yes\nonto: yes\n"
    assert "quotamaj.oracle" in modules
    assert not modules & (LIBRARY_ONLY - {"quotamaj.oracle"})

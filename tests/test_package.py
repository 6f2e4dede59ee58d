"""The package's public names and what importing it, or running a command, loads.

The import checks run in child interpreters started with `python -S`, so
that no site `.pth` file can preload a module and hide a real import.
"""

import ast
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PUBLIC = {
    "canonical": ("canonicalize", "delete_dominated", "truncate"),
    "core": (
        "Alternative", "CountProfile", "QuotaSeq", "SearchBudgetExceeded", "all_count_profiles",
        "count_table_size",
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
    "lp": ("LPRule", "all_rules", "lp_eval", "lp_to_proper", "lp_to_table", "proper_to_lp"),
    "oracle": (
        "CountManipulation", "FullManipulation", "check_anonymous", "expand_to_full",
        "find_manipulation", "find_manipulation_full", "is_onto", "reduce_to_counts",
    ),
    "tables": ("CountTable", "FullProfile", "FullTable", "Preference", "all_full_profiles", "count_of"),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)

A, B = Alternative.A, Alternative.B


def test_all_lists_the_public_names():
    assert len(NAMES) == len(set(NAMES)) == 48
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


def test_every_name_the_benchmark_reads_resolves():
    # the traced replay wraps each (module, name) of `replay.LAYERS`, and the
    # benchmark tests import from `quotamaj` and `quotamaj.core`: a name that
    # leaves the package breaks `run.py --trace` or `pytest benchmarks`
    bench = ROOT / "benchmarks"
    tree = ast.parse((bench / "replay.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not hasattr(import_module(f"quotamaj.{module}"), name)
    ]
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse((bench / "test_benchmarks.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("quotamaj", "quotamaj.core")
        for alias in node.names
    ]
    missing += [f"{module}.{name}" for module, name in imported if not hasattr(import_module(module), name)]
    assert layers and imported
    assert missing == []


def replay_layers():
    """`benchmarks/replay.py`'s LAYERS, read without running the module."""
    tree = ast.parse((ROOT / "benchmarks" / "replay.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )


def is_lru_cache(decorator):
    call = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(call, "id", getattr(call, "attr", None)) == "lru_cache"


def test_the_traced_replay_can_clear_every_library_cache():
    # `replay.clear_caches` empties the lru_caches in vars() of the modules
    # that `replay.load_library` loads: the package, each module of LAYERS
    # and `core`; a cache anywhere else would stay warm from one replayed
    # command to the next, where every real command starts cold
    modules = [quotamaj, *(import_module(f"quotamaj.{name}") for name in [*replay_layers(), "core"])]
    clearable = [value for module in modules for value in vars(module).values() if hasattr(value, "cache_clear")]
    defined = [
        (path.stem, node.name)
        for path in sorted((SRC / "quotamaj").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and any(map(is_lru_cache, node.decorator_list))
    ]
    assert defined == [("core", "all_count_profiles")]
    unreachable = [
        f"{module}.{name}"
        for module, name in defined
        if not any(getattr(import_module(f"quotamaj.{module}"), name, None) is value for value in clearable)
    ]
    assert unreachable == []


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
HEAVY = {"__future__", "dataclasses", "inspect", "typing"}
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


def command_line(tmp_path, command):
    """The command's argv, with TABLE and SEQ naming files written into tmp_path."""
    seq = tmp_path / "worked.seq"
    seq.write_text("n=11\n5,2,7,12\n")
    files = {"TABLE": write_table(tmp_path), "SEQ": str(seq)}
    return [files.get(a, a) for a in COMMANDS[command][0]]


COMMANDS = {
    "eval": (["eval", "--n", "11", "--quotas", "5,2,12", "--na", "3", "--nb", "6"], "a (lambda=1)\n"),
    "count": (["count", "--n", "3"], "16\n"),
    "canon": (["canon", "--n", "11", "--quotas", "5,2,7,12"], "5,2,12\n"),
    "canon-subset": (["canon", "--n", "11", "--subset", "2,5"], "5,2,12\n"),
    "canon-seq-file": (["canon", "--seq-file", "SEQ"], "5,2,12\n"),
    "enum": (["enum", "--n", "2"], None),
    "enum-structured": (["enum", "--n", "2", "--format", "structured"], None),
    "verify": (["verify", "--table", "TABLE"], None),
    "represent": (["represent", "--table", "TABLE"], None),
    "convert": (["convert", "--n", "11", "--quotas", "5,2,12"], None),
    "convert-rule": (["convert", "--n", "3", "--default", "a", "--r", "3", "--thresholds", "1,1,2"], None),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The modules each command of COMMANDS loads and its output, from one run of each."""
    runs = {}
    for command in COMMANDS:
        # a directory each, as each test had: ext4 flushes a file that is
        # truncated and written again, as the listing would be, when it is
        # closed, which made these runs three times slower
        work = tmp_path_factory.mktemp(command)
        runs[command] = loaded_by(work, CHILD, *command_line(work, command))
    return runs


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_loads_dataclasses_inspect_or_typing(runs, command):
    modules, out = runs[command]
    assert not modules & HEAVY
    expected = COMMANDS[command][1]
    if expected is not None:
        assert out == expected


@pytest.mark.parametrize("command", ["eval", "count", "canon"])
def test_sequence_commands_load_no_oracle_extraction_lp_or_json(runs, command):
    modules, _ = runs[command]
    assert not modules & LIBRARY_ONLY


def test_verify_on_a_text_table_loads_no_extraction_lp_or_json(runs):
    modules, out = runs["verify"]
    assert out == "anonymous: yes (count table)\nstrategy-proof: yes\nonto: yes\n"
    assert "quotamaj.oracle" in modules
    assert not modules & (LIBRARY_ONLY - {"quotamaj.oracle"})


def test_writing_tables_in_either_format_loads_no_json(tmp_path):
    script = (
        "import sys\n"
        "from quotamaj import QuotaSeq, to_table\n"
        "from quotamaj.fileformats import STRUCTURED, TEXT, format_count_table, format_full_table\n"
        "from quotamaj.oracle import expand_to_full\n"
        "table = to_table(QuotaSeq(4, (2, 3, 1, 5)))\n"
        "for fmt in (TEXT, STRUCTURED):\n"
        "    format_count_table(table, fmt)\n"
        "    format_full_table(expand_to_full(table), fmt)\n"
        "with open(sys.argv[1], 'w', encoding='utf-8') as out:\n"
        "    out.write('\\n'.join(sorted(sys.modules)))\n"
    )
    modules, _ = loaded_by(tmp_path, script)
    assert "quotamaj.fileformats" in modules and "json" not in modules


def test_the_import_profiler_reports_the_modules_a_command_loads(tmp_path):
    # the package loads each module through the import statement's hook,
    # which `-X importtime` times, so the lazily loaded ones are listed too
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "quotamaj", "verify", "--table", write_table(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    reported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"quotamaj.fileformats", "quotamaj.oracle"} <= reported


# the package modules beyond quotamaj, cli and core that each command loads:
# the ones it runs and no others
LOADS = {
    "eval": {"engine"},
    "count": set(),
    "canon": {"canonical", "engine"},
    "canon-subset": {"enumeration"},
    # the sequence reader, which loads no table layer
    "canon-seq-file": {"canonical", "engine", "fileformats"},
    "enum": {"enumeration"},
    "enum-structured": {"enumeration"},
    "verify": {"fileformats", "oracle", "tables"},
    "represent": {"canonical", "engine", "extraction", "fileformats", "oracle", "tables"},
    # `convert --quotas` runs no canonicalization, so only the other
    # direction loads `canonical`
    "convert": {"engine", "lp"},
    "convert-rule": {"canonical", "engine", "lp"},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_exactly_the_modules_it_runs(runs, command):
    modules, _ = runs[command]
    package = {m for m in modules if m.split(".")[0] == "quotamaj"}
    assert package == {"quotamaj", "quotamaj.cli", "quotamaj.core", *(f"quotamaj.{m}" for m in LOADS[command])}
    assert "json" not in modules  # the tables here are text, and the family writer lays out its own JSON


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_loads_argparse_gettext_or_locale(runs, command):
    # each of these lines is read from the option table, not by argparse
    modules, _ = runs[command]
    assert not modules & {"argparse", "gettext", "locale"}


def test_help_still_comes_from_argparse(tmp_path, monkeypatch):
    from quotamaj.cli import _build_parser

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal's width
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "quotamaj", "-h"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == _build_parser().format_help()

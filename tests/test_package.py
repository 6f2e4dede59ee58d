"""The package's public names and what importing it, or running a command, loads.

The import checks run in child interpreters started with `python -S`, so
that no site `.pth` file can preload a module and hide a real import.  The
command lines are those of `startup_commands` in tools/layers.py, each run
once by the `listings` fixture through the tool's module lister.
"""

import ast
import re
import subprocess
from importlib import import_module
from pathlib import Path

import pytest

import quotamaj

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
    # tests/test_errors.py holds the message for `quotamaj.no_such_name`
    assert not hasattr(quotamaj, "_exports_of_nothing")


def test_every_name_the_benchmark_reads_resolves():
    # the traced replay wraps each (module, name) of `replay.LAYERS`, and the
    # benchmark tests import from `quotamaj` and `quotamaj.core`: a name that
    # leaves the package breaks `run.py --trace` or `pytest benchmarks`
    layers = replay_layers()
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not hasattr(import_module(f"quotamaj.{module}"), name)
    ]
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse((ROOT / "benchmarks" / "test_benchmarks.py").read_text()))
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


HEAVY = {"__future__", "dataclasses", "inspect", "typing"}
ARGPARSE = {"argparse", "gettext", "locale"}
PARSED = ["startup.help", "startup.usage_error"]
VERIFIED = "anonymous: yes (count table)\nstrategy-proof: yes\nonto: yes\n"
OUTPUTS = {
    "startup.import": "",
    "startup.eval": "a (lambda=1)\n",
    "startup.canon": "5,2,12\n",
    "startup.count": "4096\n",
    "startup.verify": VERIFIED,
    "startup.canon.subset": "5,2,12\n",
    "startup.canon.seq_file": "5,2,12\n",
    "startup.verify.json": VERIFIED,
    "startup.usage_error": "",
}
# the package modules beyond quotamaj, cli and core that each command line
# loads: the ones it runs and no others
LOADS = {
    "startup.eval": {"engine"},
    "startup.canon": {"canonical", "engine"},
    "startup.count": set(),
    "startup.verify": {"fileformats", "oracle", "tables"},
    "startup.represent": {"engine", "extraction", "fileformats", "oracle", "tables"},
    # `convert --quotas` runs no canonicalization, so only the other
    # direction loads `canonical`
    "startup.convert": {"engine", "lp"},
    "startup.enum": {"enumeration"},
    "startup.canon.subset": {"enumeration"},
    # the sequence file is read in core, as the quota list is
    "startup.canon.seq_file": {"canonical", "engine"},
    "startup.verify.json": {"fileformats", "oracle", "tables"},
    "startup.enum.structured": {"enumeration"},
    "startup.convert.rule": {"canonical", "engine", "lp"},
    # argparse is built from cli's option table alone
    "startup.help": set(),
    "startup.usage_error": set(),
}
LINES = ["startup.import", *LOADS]


def line_id(line):
    """`startup.canon.seq_file` -> `canon-seq-file`, the line's name in these tests' ids."""
    return line.removeprefix("startup.").replace(".", "-").replace("_", "-")


def test_the_start_up_checks_cover_every_line_of_the_tool(layers, listings):
    assert LINES == list(layers.startup_commands("worked.tbl")) == list(listings)


def test_importing_the_package_loads_no_submodule(listings):
    _, modules = listings["startup.import"]
    assert [m for m in modules if m.split(".")[0] == "quotamaj"] == ["quotamaj"]


def test_the_modules_that_defined_the_names_are_attributes_on_first_use(layers):
    code = (
        "import sys, quotamaj\n"
        f"print(all(getattr(quotamaj, m) is sys.modules['quotamaj.' + m] for m in {sorted(PUBLIC)!r}))\n"
    )
    assert layers.list_modules(0, code)[0] == "True\n"


@pytest.mark.parametrize("line", LINES, ids=line_id)
def test_no_command_loads_dataclasses_inspect_or_typing(listings, line):
    out, modules = listings[line]
    assert not set(modules) & HEAVY
    if line in OUTPUTS:
        assert out == OUTPUTS[line]


def test_verify_on_a_json_table_loads_what_verify_does_and_json(layers, listings):
    # exactly: what `import json` loads in a bare interpreter, and no other module
    _, json_alone = layers.list_modules(0, "import json")
    assert "json" in json_alone
    assert set(listings["startup.verify.json"][1]) == set(listings["startup.verify"][1]) | set(json_alone)


def test_writing_tables_in_either_format_loads_no_json(layers):
    script = (
        "from quotamaj import QuotaSeq, to_table\n"
        "from quotamaj.fileformats import STRUCTURED, TEXT, format_count_table, format_full_table\n"
        "from quotamaj.oracle import expand_to_full\n"
        "table = to_table(QuotaSeq(4, (2, 3, 1, 5)))\n"
        "for fmt in (TEXT, STRUCTURED):\n"
        "    format_count_table(table, fmt)\n"
        "    format_full_table(expand_to_full(table), fmt)\n"
    )
    _, modules = layers.list_modules(0, script)
    assert "quotamaj.fileformats" in modules and "json" not in modules


def test_the_import_profiler_reports_the_modules_a_command_loads(layers, tmp_path):
    # the package loads each module through the import statement's hook,
    # which `-X importtime` times, so the lazily loaded ones are listed too
    table = layers.worked_table(tmp_path)
    proc = layers.run_expecting(0, ["-S", "-X", "importtime", "-m", "quotamaj", "verify", "--table", table])
    reported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"quotamaj.fileformats", "quotamaj.oracle"} <= reported


@pytest.mark.parametrize("line", LOADS, ids=line_id)
def test_each_command_loads_exactly_the_modules_it_runs(listings, line):
    _, modules = listings[line]
    package = {m for m in modules if m.split(".")[0] == "quotamaj"}
    assert package == {"quotamaj", "quotamaj.cli", "quotamaj.core", *(f"quotamaj.{m}" for m in LOADS[line])}
    # the family writer lays out its own JSON, so only a JSON table loads json
    assert ("json" in modules) == (line == "startup.verify.json")


# the padded worked rule is not proper, so `convert` refuses it from either source
@pytest.mark.parametrize("verb, status", [(["eval", "--na", "3", "--nb", "6"], 0), (["canon"], 0), (["convert"], 2)],
                         ids=["eval", "canon", "convert"])
def test_a_sequence_file_loads_what_its_quota_list_does(layers, tmp_path, verb, status):
    layers.worked_table(tmp_path)
    from_file, from_list = (
        layers.list_modules(status, layers.RUNNER, *verb, *source, cwd=tmp_path)
        for source in (["--seq-file", "worked.seq"], ["--n", "11", "--quotas", "5,2,7,12"])
    )
    assert from_file[0] == from_list[0]
    assert {m for m in from_file[1] if m.split(".")[0] == "quotamaj"} == {
        m for m in from_list[1] if m.split(".")[0] == "quotamaj"
    }


def test_the_readme_start_up_table_matches_loads():
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = readme.index("| line | command | loads |")
    rows = {}
    for row in readme[start + 2:]:
        if not row.startswith("|"):
            break
        names, _, loads = row.split("|")[1:4]
        rows |= {f"startup.{name}": set(re.findall(r"`(\w+)`", loads)) for name in re.findall(r"`([\w.]+)`", names)}
    assert rows == LOADS


def test_the_readme_figure_of_what_verify_compiles_matches_loads(layers, listings):
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    figure = re.search(r"`verify` compiles ([\d,]+) AST nodes", readme)[1]
    assert int(figure.replace(",", "")) == layers.startup_loads(listings)["startup.verify"]["ast_nodes"]


@pytest.mark.parametrize("line", [line for line in LINES if line not in PARSED], ids=line_id)
def test_no_command_loads_argparse_gettext_or_locale(listings, line):
    # each of these lines is read from the option table, not by argparse
    assert not set(listings[line][1]) & ARGPARSE


@pytest.mark.parametrize("line", PARSED, ids=line_id)
def test_help_and_usage_errors_load_argparse_gettext_and_locale(listings, line):
    assert ARGPARSE <= set(listings[line][1])


def test_help_still_comes_from_argparse(layers, monkeypatch):
    from quotamaj.cli import _build_parser

    # argparse wraps its help to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    proc = layers.run_expecting(0, ["-S", "-m", "quotamaj", "-h"], stdout=subprocess.PIPE,
                                env={**layers.ENV, "COLUMNS": "80"})
    assert proc.stderr == ""
    assert proc.stdout == _build_parser().format_help()

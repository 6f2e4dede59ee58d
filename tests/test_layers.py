"""Smoke test of tools/layers.py on tiny inputs; it never compares timings."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from quotamaj import QuotaSeq, canonicalize, check_anonymous, to_table
from quotamaj.fileformats import parse_table
from quotamaj.lp import lp_to_proper, proper_to_lp
from quotamaj.oracle import find_manipulation_full, reduce_to_counts

ROOT = Path(__file__).resolve().parents[1]


def minima(runs):
    """The least seconds of each case on the first tree of measure's runs."""
    return {name: min(trees[0]) for name, trees in runs.items()}


@pytest.fixture(scope="module")
def files(layers):
    """file_cases with its large count table at n=30, built once for the tests that read it."""
    return layers.file_cases(30)


@pytest.fixture(scope="module")
def cases(layers, tmp_path_factory):
    """Every case of all_cases, built once for the tests that read them."""
    return layers.all_cases(tmp_path_factory.mktemp("cases"))


@pytest.fixture(scope="module")
def loads(layers, listings):
    """startup_loads of the one run of each start-up line."""
    return layers.startup_loads(listings)


def test_layers_records_every_case_with_its_settings(layers, tmp_path):
    cases = layers.table_cases(8, (4, 6, 2, 9))
    timings = minima(layers.measure([cases], repeats=1))
    assert list(timings) == ["to_table.n8", "find_manipulation.n8", "extract.n8", "represent.n8"]
    assert all(seconds >= 0 for seconds in timings.values())
    record = layers.bench_record("smoke", 1, timings)
    assert record["assertions"] in ("on", "off") and record["python"]
    assert record["statistic"] == "min" and record["repeats"] == 1
    assert record["dont_write_bytecode"] is sys.dont_write_bytecode
    assert set(record["timings_s"]) == set(timings)
    json.dumps(record)


def test_layers_times_each_run_on_a_cold_library(layers):
    # every command starts with empty caches, so no timed run may read one
    # that setup or an earlier run filled
    from quotamaj.core import all_count_profiles

    table = to_table(QuotaSeq(8, (4, 6, 2, 9)))
    all_count_profiles(9)
    layers.measure([[("items.n8", lambda: list(table.items()))]], repeats=3)
    info = all_count_profiles.cache_info()
    assert info.hits == 0 and info.currsize == 1
    assert layers.bench_record("cold", 1, {})["caches"] == "every quotamaj lru_cache cleared before each run"


def test_layers_baseline_inputs_are_fixed(layers):
    names = [name for name, _ in layers.baseline_cases()]
    assert len(names) == len(set(names)) == 14
    sequence = layers.random_sequence(500, 300, layers.RANDOM_SEED)
    assert len(sequence) == 300 and sequence[-1] == 501
    assert sequence == layers.random_sequence(500, 300, layers.RANDOM_SEED)


def test_layers_times_parse_table_on_both_kinds_and_formats(layers, files):
    timings = minima(layers.measure([files[:4]], repeats=1))
    assert list(timings) == [
        "parse_table.count.n140.text",
        "parse_table.count.n140.json",
        "parse_table.full.n8.text",
        "parse_table.full.n8.json",
    ]
    assert all(seconds > 0 for seconds in timings.values())


def test_layers_times_parse_table_on_shuffled_count_tables(layers, files):
    cases = files[4:6]
    timings = minima(layers.measure([cases], repeats=1))
    assert list(timings) == [
        "parse_table.count.n140.shuffled.text",
        "parse_table.count.n140.shuffled.json",
    ]
    assert all(seconds > 0 for seconds in timings.values())
    # the same tables as the canonical-order files, whose entries are not in that order
    canonical = dict(files)
    for fmt_name, (_, parse) in zip(("text", "json"), cases):
        assert parse() == canonical[f"parse_table.count.n140.{fmt_name}"]()
        assert parse.args[0] != canonical[f"parse_table.count.n140.{fmt_name}"].args[0]


def test_layers_times_parse_table_on_a_large_count_table_in_both_orders(files):
    (name, canonical), (shuffled_name, shuffled) = files[6:8]
    assert (name, shuffled_name) == ("parse_table.count.n30.text", "parse_table.count.n30.shuffled.text")
    assert canonical.args[0] != shuffled.args[0]
    assert canonical() == shuffled() == to_table(QuotaSeq(30, (15, 21, 9, 31)))


def test_layers_times_the_table_writers(files):
    cases = files[8:]
    assert [name for name, _ in cases] == [
        "format_count_table.n30.text",
        "format_count_table.n30.structured",
        "format_full_table.n8.text",
        "format_full_table.n8.structured",
    ]
    count = to_table(QuotaSeq(30, (15, 21, 9, 31)))
    assert [parse_table(write()) for _, write in cases[:2]] == [count, count]
    assert parse_table(cases[2][1]()) == dict(files)["parse_table.full.n8.text"]()


def test_layers_times_the_enum_render_in_both_formats(layers):
    from quotamaj import cli

    emit = cli._emit
    timings = minima(layers.measure([layers.enum_cases()], repeats=1))
    assert list(timings) == [
        "enum.n10.text",
        "enum.n10.structured",
        "enum.n11.text",
        "enum.n11.structured",
        "enum.n12.text",
        "enum.n12.structured",
        "enum.n14.text",
        "enum.n14.structured",
    ]
    assert all(seconds > 0 for seconds in timings.values())
    assert cli._emit is emit


def test_layers_loads_the_parent_tree_beside_this_one(layers, tmp_path, monkeypatch, cases):
    import certificates

    def own_modules():
        return {name: module for name, module in sys.modules.items()
                if name == "certificates" or name.split(".")[0] == "quotamaj"}

    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    before = own_modules()
    copy = layers.load_parent(src)
    parent = {name: module for name, module in sys.modules.items() if name.split(".")[0] == layers.PARENT}
    try:
        # sys.modules names this checkout's modules again, and only those
        assert own_modules() == before
        assert Path(sys.modules["quotamaj"].__file__).resolve() == layers.SRC / "quotamaj" / "__init__.py"
        assert sys.modules["certificates"] is certificates
        assert Path(certificates.__file__).resolve() == ROOT / "tests" / "certificates.py"
        # the copy runs the copied files, and no module object is shared
        assert copy.SRC == src.resolve()
        assert all(Path(module.__file__).resolve().is_relative_to(src.resolve()) for module in parent.values())
        assert not {id(module) for module in parent.values()} & {id(module) for module in before.values()}
        assert Path(copy.to_table.__code__.co_filename).resolve() == src.resolve() / "quotamaj" / "engine.py"
        for name in ("QuotaSeq", "canonicalize", "enumerate_all", "find_manipulation", "parse_table", "to_table"):
            assert getattr(copy, name).__module__.split(".")[0] == layers.PARENT
        # its exhaustive search is this checkout's file on the copy's tables
        assert copy.exhaustive_sp_family.__globals__ is not certificates.__dict__
        assert type(copy.exhaustive_sp_family(2)[0]) is parent[f"{layers.PARENT}.tables"].CountTable
        # its enum render runs the copy's cli
        assert copy.cli is parent[f"{layers.PARENT}.cli"]
        rendered = []
        monkeypatch.setattr(copy.cli, "cmd_enum", lambda args: rendered.append(args.n))
        copy.enum_render(3, "text")
        assert rendered == [3]
        # the same cases, which run on the copy
        names = [name for name, _ in cases]
        assert len(names) == len(set(names))
        assert {"enumerate_all.n14", "values.count_profiles.n300", "enum.n14.text"} <= set(names)
        assert {"startup.enum", "startup.usage_error", "find_manipulation_full.n7"} <= set(names)
        assert {"parse_table.count.n140.shuffled.text", "parse_table.count.n140.shuffled.json"} <= set(names)
        assert {"parse_table.count.n1000.text", "parse_table.count.n1000.shuffled.text"} <= set(names)
        assert {"format_count_table.n1000.text", "format_full_table.n8.text"} <= set(names)
        (tmp_path / "parent").mkdir()
        parent_cases = copy.all_cases(tmp_path / "parent")
        assert [name for name, _ in parent_cases] == names
        parent_cases = dict(parent_cases)
        assert parent_cases["startup.import"].func is copy.run_expecting
        assert copy.ENV["PYTHONPATH"] == str(src.resolve())
        assert layers.run_once(parent_cases["to_table.n200"]) > 0
        assert layers.run_once(parent_cases["startup.import"]) > 0
    finally:
        for name in parent:
            del sys.modules[name]


def test_layers_imports_this_checkout_unless_pythonpath_names_another(layers, tmp_path):
    # run from the root with no PYTHONPATH, the tool finds its own src/; a
    # PYTHONPATH still comes first, so it can name another tree to time
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    code = "import sys; sys.path.insert(0, 'tools'); import layers; print(layers.SRC)"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for extra, src in (({}, ROOT / "src"), ({"PYTHONPATH": str(copy)}, copy)):
        proc = layers.run_expecting(0, ["-c", code], stdout=subprocess.PIPE, cwd=ROOT, env={**env, **extra})
        assert Path(proc.stdout.strip()) == src.resolve()


def stub_trees(monkeypatch, layers, script):
    """Make main time `script`, which maps each case to the seconds of its
    runs on this tree and on the parent's, with no subprocess or git call."""

    # each case's thunk yields the seconds of its runs on its tree, 0 for this one and 1 for the parent
    def cases(side):
        return lambda work: [(name, iter(seconds[side])) for name, seconds in script.items()]

    copy = SimpleNamespace(all_cases=cases(1), startup_listings=lambda work: {}, startup_loads=lambda listings: {})
    monkeypatch.setattr(layers, "all_cases", cases(0))
    monkeypatch.setattr(layers, "load_parent", lambda src: copy)
    monkeypatch.setattr(layers, "run_once", next)
    monkeypatch.setattr(layers, "export_tree", lambda rev, dest: dest / "src")
    monkeypatch.setattr(layers, "git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(layers, "startup_listings", lambda work: {})
    monkeypatch.setattr(layers, "startup_loads", lambda listings: {})
    monkeypatch.setattr(layers, "tier1_run", lambda: {})


def test_layers_against_counts_the_pairs_each_tree_wins(layers, tmp_path, monkeypatch):
    stub_trees(monkeypatch, layers, {
        "faster": ([1.0] * 5, [2.0] * 5),
        "slower": ([2.0] * 5, [1.0] * 5),
        "mixed": ([1.0, 3.0, 1.0, 3.0, 1.0], [2.0] * 5),
    })
    assert layers.main(["--label", "stub", "--out", str(tmp_path), "--against", "REV"]) == 0
    record = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert record["timings_s"] == {"faster": 1.0, "slower": 2.0, "mixed": 1.0}
    assert record["against"]["parent_s"] == {"faster": 2.0, "slower": 1.0, "mixed": 2.0}
    # the wins go under `against` in the BENCH file
    assert record["against"]["wins"] == {"faster": 5, "slower": 0, "mixed": 3}
    assert record["against"]["commit"] == "0123abc"
    assert record["against"]["speedup"] == {"faster": 2.0, "slower": 0.5, "mixed": 2.0}
    # without --against the same loop times this tree alone
    assert layers.main(["--label", "plain", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_plain.json").read_text())
    assert record["timings_s"] == {"faster": 1.0, "slower": 2.0, "mixed": 1.0} and "against" not in record


def test_layers_against_records_the_parent_tree_startup_loads(layers, tmp_path, monkeypatch):
    works = []

    # the copy of this script that load_parent returns lists what the parent tree loads
    def parent_listings(work):
        works.append(work)
        return {"startup.count": ("4096\n", ["quotamaj_parent"])}

    def parent_loads(listings):
        return {name: {"modules": modules, "ast_nodes": 70} for name, (_, modules) in listings.items()}

    copy = SimpleNamespace(all_cases=lambda work: [("case", None)], startup_listings=parent_listings,
                           startup_loads=parent_loads)
    monkeypatch.setattr(layers, "all_cases", lambda work: [("case", None)])
    monkeypatch.setattr(layers, "load_parent", lambda src: copy)
    monkeypatch.setattr(layers, "run_once", lambda thunk: 1.0)
    monkeypatch.setattr(layers, "export_tree", lambda rev, dest: dest / "src")
    monkeypatch.setattr(layers, "git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(layers, "startup_listings", lambda work: {})
    monkeypatch.setattr(layers, "startup_loads", lambda listings: {"startup.count": {"ast_nodes": 60}})
    monkeypatch.setattr(layers, "tier1_run", lambda: {})
    assert layers.main(["--label", "stub", "--out", str(tmp_path), "--against", "REV"]) == 0
    record = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert record["against"]["startup_loads"] == {"startup.count": {"modules": ["quotamaj_parent"], "ast_nodes": 70}}
    assert record["startup_loads"] == {"startup.count": {"ast_nodes": 60}}
    # in the parent tree's own directory, which this tree's cases do not share
    assert works[0].name == "parent"


def test_layers_records_each_minimum_to_four_significant_digits(layers, tmp_path, monkeypatch):
    # a fixed number of decimals would leave a microsecond case one digit
    timings = {"micro": 3.01234e-06, "milli": 0.0123456, "whole": 12.345678}
    rounded = {"micro": 3.012e-06, "milli": 0.01235, "whole": 12.35}
    assert layers.bench_record("digits", 1, timings)["timings_s"] == rounded
    stub_trees(monkeypatch, layers, {name: ([s] * 5, [s * 2] * 5) for name, s in timings.items()})
    assert layers.main(["--label", "digits", "--out", str(tmp_path), "--against", "REV"]) == 0
    record = json.loads((tmp_path / "BENCH_digits.json").read_text())
    assert record["timings_s"] == rounded
    assert record["against"]["parent_s"] == {"micro": 6.025e-06, "milli": 0.02469, "whole": 24.69}
    # speed-ups come from the unrounded minima
    assert record["against"]["speedup"] == dict.fromkeys(timings, 2.0)


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_layers_exports_a_revision(layers, tmp_path):
    src = layers.export_tree("HEAD", tmp_path)
    assert (src / "quotamaj" / "cli.py").is_file() and (tmp_path / "tools" / "layers.py").is_file()


def test_layers_startup_runs_one_command_per_cli_verb(layers, cases):
    commands = layers.startup_commands("worked.tbl")
    verbs = ["eval", "canon", "enum", "count", "verify", "represent", "convert"]
    shapes = ["canon.subset", "canon.seq_file", "verify.json", "enum.structured", "convert.rule"]
    argparse_lines = ["help", "usage_error"]
    assert sorted(commands) == sorted(
        ["startup.import", *(f"startup.{name}" for name in verbs + shapes + argparse_lines)]
    )
    assert all(commands[f"startup.{name}"][0][2] == name.partition(".")[0] for name in verbs + shapes)
    # each start-up case runs once here, and checks its exit status
    startup = [(name, thunk) for name, thunk in cases if name.startswith("startup.")]
    timings = minima(layers.measure([startup], repeats=1))
    assert list(timings) == list(commands) and all(seconds > 0 for seconds in timings.values())


def test_layers_times_the_command_lines_argparse_reads(layers, cases):
    commands = layers.startup_commands("worked.tbl")
    assert commands["startup.help"] == (["-c", layers.RUNNER, "-h"], 0)
    assert commands["startup.usage_error"] == (["-c", layers.RUNNER, "verify"], 2)
    assert all(status == 0 for name, (_, status) in commands.items() if name != "startup.usage_error")
    assert {"startup.help", "startup.usage_error"} <= {name for name, _ in cases}
    with pytest.raises(RuntimeError, match="exited with 0, not 2"):
        layers.run_expecting(2, ["-c", "pass"])
    # a command that fails shows the end of its stderr
    with pytest.raises(RuntimeError, match="exited with 1, not 0:\nboom"):
        layers.run_expecting(0, ["-c", "raise SystemExit('boom')"])


def test_layers_times_the_conversions_and_the_full_table_oracle(layers, tmp_path):
    cases = layers.search_cases(tmp_path)
    assert [name for name, _ in cases] == [
        "proper_to_lp.n200",
        "lp_to_proper.n80",
        "reduce_to_counts.n8",
        "load_counts.full.n7.json",
        "find_manipulation_full.n7",
    ]
    assert not {name for name, _ in cases} & {name for name, _ in layers.baseline_cases()}
    cases = dict(cases)
    # each case returns what the library call returns, on inputs of the
    # workloads' shapes: a proper sequence with 24 quotas at n=200 and a rule at n=80
    seq = cases["proper_to_lp.n200"].args[0]
    assert canonicalize(seq.quotas, 200) == seq and len(seq.quotas) == 25
    assert cases["proper_to_lp.n200"]() == proper_to_lp(seq)
    rule = cases["lp_to_proper.n80"].args[0]
    assert rule.n == 80 and cases["lp_to_proper.n80"]() == lp_to_proper(rule)
    # the anonymous full table at n=8 reduces to its count table
    assert cases["reduce_to_counts.n8"]() == reduce_to_counts(layers.FULL) == to_table(QuotaSeq(8, (4, 6, 2, 9)))
    # a full table at n=7 that is not anonymous, so `verify` reads it to no
    # count table and runs the masked shifts of every voter, whose cost does
    # not depend on a witness; its flip leaves it strategy-proof, so they find none
    full = cases["find_manipulation_full.n7"].args[0]
    assert full.n == 7 and not check_anonymous(full)
    assert cases["load_counts.full.n7.json"]() == (full, None)
    assert cases["find_manipulation_full.n7"]() is find_manipulation_full(full) is None


def test_layers_records_the_modules_each_startup_command_loads(layers, loads):
    assert list(loads) == list(layers.startup_commands("worked.tbl"))
    assert loads["startup.import"]["modules"] == ["quotamaj"]
    assert loads["startup.count"]["modules"] == ["quotamaj", "quotamaj.cli", "quotamaj.core"]
    assert loads["startup.convert"]["modules"] == [
        "quotamaj", "quotamaj.cli", "quotamaj.core", "quotamaj.engine", "quotamaj.lp",
    ]
    lines = layers.source_lines(layers.ROOT)["src_modules"]
    for load in loads.values():
        files = [f"{m.partition('.')[2] or '__init__'}.py" for m in load["modules"]]
        assert load["source_lines"] == sum(lines[name] for name in files)
    json.dumps(loads)


def test_layers_records_the_ast_nodes_each_startup_command_compiles(layers, tmp_path, loads):
    (tmp_path / "bare.py").write_text("x = 1\n")
    (tmp_path / "documented.py").write_text('"""One.\n\nTwo.\n"""\n# three\nx = 1  # four\n')
    # Module, Assign, Name, Store, Constant; the docstring adds one Expr and one Constant
    assert layers.ast_nodes(tmp_path / "bare.py") == 5
    assert layers.ast_nodes(tmp_path / "documented.py") == 7
    source = layers.SRC / "quotamaj"
    for load in loads.values():
        files = [source / f"{m.partition('.')[2] or '__init__'}.py" for m in load["modules"]]
        assert load["ast_nodes"] == sum(map(layers.ast_nodes, files))
    assert 0 < loads["startup.import"]["ast_nodes"] < loads["startup.count"]["ast_nodes"]
    assert loads["startup.count"]["ast_nodes"] < loads["startup.verify"]["ast_nodes"]
    assert loads["startup.verify"]["ast_nodes"] < loads["startup.represent"]["ast_nodes"]


def test_layers_reads_the_tier1_counts(layers):
    assert layers.tier1_summary("221 passed, 2 skipped in 16.02s") == {
        "passed": 221, "skipped": 2, "failed": 0, "error": 0,
    }
    assert layers.tier1_summary("1 failed, 220 passed, 2 skipped, 3 errors in 16s") == {
        "passed": 220, "skipped": 2, "failed": 1, "error": 3,
    }


def test_layers_counts_source_lines(layers, tmp_path):
    (tmp_path / "src" / "quotamaj").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "quotamaj" / "engine.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "src" / "quotamaj" / "core.py").write_text("c = 3\n")
    (tmp_path / "src" / "quotamaj" / "notes.txt").write_text("not counted\n")
    (tmp_path / "tests" / "test_x.py").write_text("def test():\n    pass\n\n")
    # Module, then Assign, Name, Store and Constant per statement
    assert layers.source_lines(tmp_path) == {
        "src_total": 3,
        "src_modules": {"core.py": 1, "engine.py": 2},
        "src_ast_nodes_total": 14,
        "src_ast_nodes": {"core.py": 5, "engine.py": 9},
        "tests_total": 3,
    }
    record = layers.source_lines()
    modules, nodes = record["src_modules"], record["src_ast_nodes"]
    assert "engine.py" in modules and "__init__.py" in modules
    assert record["src_total"] == sum(modules.values()) and record["tests_total"] > 0
    assert nodes.keys() == modules.keys() and record["src_ast_nodes_total"] == sum(nodes.values())
    assert nodes["core.py"] == layers.ast_nodes(layers.SRC / "quotamaj" / "core.py")
    json.dumps(record)

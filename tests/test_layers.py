"""Smoke test of tools/layers.py on tiny inputs; it never compares timings."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from quotamaj import QuotaSeq, to_table
from quotamaj.fileformats import parse_table

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "layers.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_records_every_case_with_its_settings(tmp_path):
    layers = load_tool()
    cases = layers.table_cases(8, (4, 6, 2, 9))
    timings = layers.measure(cases, repeats=1)
    assert list(timings) == ["to_table.n8", "find_manipulation.n8", "extract.n8", "represent.n8"]
    assert all(seconds >= 0 for seconds in timings.values())
    record = layers.bench_record("smoke", 1, timings)
    assert record["assertions"] in ("on", "off") and record["python"]
    assert record["statistic"] == "min" and record["repeats"] == 1
    assert record["dont_write_bytecode"] is sys.dont_write_bytecode
    assert set(record["timings_s"]) == set(timings)
    json.dumps(record)


def test_layers_baseline_inputs_are_fixed():
    layers = load_tool()
    names = [name for name, _ in layers.baseline_cases()]
    assert len(names) == len(set(names)) == 14
    sequence = layers.random_sequence(500, 300, layers.RANDOM_SEED)
    assert len(sequence) == 300 and sequence[-1] == 501
    assert sequence == layers.random_sequence(500, 300, layers.RANDOM_SEED)


def test_layers_times_parse_table_on_both_kinds_and_formats():
    layers = load_tool()
    timings = layers.parse_timings(repeats=1)
    assert list(timings) == [
        "parse_table.count.n140.text",
        "parse_table.count.n140.json",
        "parse_table.full.n8.text",
        "parse_table.full.n8.json",
    ]
    assert all(seconds > 0 for seconds in timings.values())


def test_layers_times_parse_table_on_shuffled_count_tables():
    layers = load_tool()
    cases = layers.shuffled_cases()
    timings = layers.measure(cases, repeats=1)
    assert list(timings) == [
        "parse_table.count.n140.shuffled.text",
        "parse_table.count.n140.shuffled.json",
    ]
    assert all(seconds > 0 for seconds in timings.values())
    # the same tables as the canonical-order files, whose entries are not in that order
    canonical = dict(layers.parse_cases())
    for fmt_name, (_, parse) in zip(("text", "json"), cases):
        assert parse() == canonical[f"parse_table.count.n140.{fmt_name}"]()
        assert parse.args[0] != canonical[f"parse_table.count.n140.{fmt_name}"].args[0]


def test_layers_times_parse_table_on_a_large_count_table_in_both_orders():
    layers = load_tool()
    (name, canonical), (shuffled_name, shuffled) = layers.large_parse_cases(30)
    assert (name, shuffled_name) == ("parse_table.count.n30.text", "parse_table.count.n30.shuffled.text")
    assert canonical.args[0] != shuffled.args[0]
    assert canonical() == shuffled() == to_table(QuotaSeq(30, (15, 21, 9, 31)))


def test_layers_times_the_table_writers():
    layers = load_tool()
    cases = layers.writer_cases(30)
    assert [name for name, _ in cases] == [
        "format_count_table.n30.text",
        "format_count_table.n30.structured",
        "format_full_table.n8.text",
        "format_full_table.n8.structured",
    ]
    count = to_table(QuotaSeq(30, (15, 21, 9, 31)))
    assert [parse_table(write()) for _, write in cases[:2]] == [count, count]
    assert parse_table(cases[2][1]()) == dict(layers.parse_cases())["parse_table.full.n8.text"]()


def test_layers_times_format_family_in_both_formats():
    layers = load_tool()
    timings = layers.family_timings(repeats=1)
    assert list(timings) == ["format_family.n12.text", "format_family.n12.structured"]
    assert all(seconds > 0 for seconds in timings.values())


def test_layers_times_the_enum_render_in_both_formats():
    layers = load_tool()
    from quotamaj import cli

    emit = cli._emit
    timings = layers.measure(layers.enum_cases(), repeats=1)
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


def test_layers_worker_runs_named_cases_on_its_sources(tmp_path):
    layers = load_tool()
    names = [name for name, _ in layers.all_cases(tmp_path)]
    assert len(names) == len(set(names))
    assert {"enumerate_all.n14", "enum.n14.text", "format_family.n12.text", "startup.enum"} <= set(names)
    assert {name for name, _ in layers.shuffled_cases()} <= set(names)
    assert {"parse_table.count.n1000.text", "parse_table.count.n1000.shuffled.text"} <= set(names)
    assert {"format_count_table.n1000.text", "format_full_table.n8.text"} <= set(names)
    worker = layers.Worker(layers.ROOT / "src", tmp_path)
    try:
        assert worker.cases == names
        assert worker.run("to_table.n200") > 0 and worker.run("startup.import") > 0
    finally:
        worker.close()
    assert worker.proc.returncode == 0


def test_layers_against_counts_the_pairs_each_tree_wins(tmp_path, monkeypatch):
    layers = load_tool()
    # seconds of each run of each case, this tree's then the parent's
    script = {
        "faster": ([1.0] * 5, [2.0] * 5),
        "slower": ([2.0] * 5, [1.0] * 5),
        "mixed": ([1.0, 3.0, 1.0, 3.0, 1.0], [2.0] * 5),
    }

    class StubWorker:
        def __init__(self, src, cwd):
            self.side = 0 if src == layers.ROOT / "src" else 1
            self.cases = list(script)
            self.done = dict.fromkeys(script, 0)

        def run(self, name):
            self.done[name] += 1
            return script[name][self.side][self.done[name] - 1]

        def close(self):
            pass

    monkeypatch.setattr(layers, "Worker", StubWorker)
    monkeypatch.setattr(layers, "export_tree", lambda rev, dest: dest / "src")
    change, parent, wins = layers.against("REV", layers.REPEATS)
    assert change == {"faster": 1.0, "slower": 2.0, "mixed": 1.0}
    assert parent == {"faster": 2.0, "slower": 1.0, "mixed": 2.0}
    assert wins == {"faster": 5, "slower": 0, "mixed": 3}
    # the wins go under `against` in the BENCH file
    monkeypatch.setattr(layers, "git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(layers, "startup_loads", lambda work: {})
    monkeypatch.setattr(layers, "tier1_run", lambda: {})
    assert layers.main(["--label", "stub", "--out", str(tmp_path), "--against", "REV"]) == 0
    record = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert record["against"]["wins"] == wins and record["against"]["commit"] == "0123abc"
    assert record["against"]["speedup"] == {"faster": 2.0, "slower": 0.5, "mixed": 2.0}


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_layers_exports_a_revision(tmp_path):
    layers = load_tool()
    src = layers.export_tree("HEAD", tmp_path)
    assert (src / "quotamaj" / "cli.py").is_file() and (tmp_path / "tools" / "layers.py").is_file()


def test_layers_startup_runs_one_command_per_cli_verb():
    layers = load_tool()
    commands = layers.startup_commands("worked.tbl")
    verbs = ["eval", "canon", "enum", "count", "verify", "represent", "convert"]
    shapes = ["canon.subset", "canon.seq_file", "verify.json", "enum.structured", "convert.rule"]
    assert sorted(commands) == sorted(["startup.import", *(f"startup.{name}" for name in verbs + shapes)])
    assert all(commands[f"startup.{name}"][2] == name.partition(".")[0] for name in verbs + shapes)
    timings = layers.startup_timings(repeats=1)
    assert list(timings) == list(commands) and all(seconds > 0 for seconds in timings.values())


def test_layers_times_the_command_lines_argparse_reads(tmp_path):
    layers = load_tool()
    cases = layers.fallback_cases(tmp_path)
    assert [name for name, _ in cases] == ["startup.help", "startup.usage_error"]
    assert not {name for name, _ in cases} & set(layers.startup_commands("worked.tbl"))
    assert {name for name, _ in cases} <= {name for name, _ in layers.all_cases(tmp_path)}
    timings = layers.measure(cases, repeats=1)
    assert all(seconds > 0 for seconds in timings.values())
    with pytest.raises(RuntimeError, match="exited with 0, not 2"):
        layers.run_expecting(2, [sys.executable, "-c", "pass"])


def test_layers_records_the_modules_each_startup_command_loads(tmp_path):
    layers = load_tool()
    loads = layers.startup_loads(tmp_path)
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


def test_layers_records_the_ast_nodes_each_startup_command_compiles(tmp_path):
    layers = load_tool()
    (tmp_path / "bare.py").write_text("x = 1\n")
    (tmp_path / "documented.py").write_text('"""One.\n\nTwo.\n"""\n# three\nx = 1  # four\n')
    # Module, Assign, Name, Store, Constant; the docstring adds one Expr and one Constant
    assert layers.ast_nodes(tmp_path / "bare.py") == 5
    assert layers.ast_nodes(tmp_path / "documented.py") == 7
    loads = layers.startup_loads(tmp_path)
    source = layers.SRC / "quotamaj"
    for load in loads.values():
        files = [source / f"{m.partition('.')[2] or '__init__'}.py" for m in load["modules"]]
        assert load["ast_nodes"] == sum(map(layers.ast_nodes, files))
    assert 0 < loads["startup.import"]["ast_nodes"] < loads["startup.count"]["ast_nodes"]
    assert loads["startup.count"]["ast_nodes"] < loads["startup.verify"]["ast_nodes"]
    assert loads["startup.verify"]["ast_nodes"] < loads["startup.represent"]["ast_nodes"]


def test_layers_reads_the_tier1_counts():
    layers = load_tool()
    assert layers.tier1_summary("221 passed, 2 skipped in 16.02s") == {
        "passed": 221, "skipped": 2, "failed": 0, "error": 0,
    }
    assert layers.tier1_summary("1 failed, 220 passed, 2 skipped, 3 errors in 16s") == {
        "passed": 220, "skipped": 2, "failed": 1, "error": 3,
    }


def test_layers_counts_source_lines(tmp_path):
    layers = load_tool()
    (tmp_path / "src" / "quotamaj").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "quotamaj" / "engine.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "src" / "quotamaj" / "core.py").write_text("c = 3\n")
    (tmp_path / "src" / "quotamaj" / "notes.txt").write_text("not counted\n")
    (tmp_path / "tests" / "test_x.py").write_text("def test():\n    pass\n\n")
    assert layers.source_lines(tmp_path) == {
        "src_total": 3,
        "src_modules": {"core.py": 1, "engine.py": 2},
        "tests_total": 3,
    }
    record = layers.source_lines()
    modules = record["src_modules"]
    assert "engine.py" in modules and "__init__.py" in modules
    assert record["src_total"] == sum(modules.values()) and record["tests_total"] > 0
    json.dumps(record)

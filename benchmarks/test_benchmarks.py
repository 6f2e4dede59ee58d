"""Tests of the benchmark itself: its generator, reference, checks and trace.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from quotamaj import (  # noqa: E402
    Alternative,
    all_rules,
    enumerate_all,
    expand_to_full,
    find_manipulation,
    find_manipulation_full,
    is_proper,
    lp_to_table,
    subset_to_proper,
    to_table,
)
from quotamaj.core import CountTable, FullTable  # noqa: E402


def _files(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first, second, other = tmp_path / "1", tmp_path / "2", tmp_path / "3"
    for work in (first, second, other):
        work.mkdir()
    a = workloads.build_round(workload, 7, 0, first)
    b = workloads.build_round(workload, 7, 0, second)
    c = workloads.build_round(workload, 8, 0, other)
    assert [cmd.argv for cmd in a] == [cmd.argv for cmd in b]
    assert _files(first) == _files(second)
    assert [cmd.argv for cmd in a] != [cmd.argv for cmd in c] or _files(first) != _files(other)


def test_padding_keeps_the_rule():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(2, 30)
        subset = rng.sample(range(1, n + 1), rng.randint(1, n))
        proper = ref.subset_to_proper(subset, rng.choice("ab"), n)
        raw = workloads.pad_sequence(rng, proper)
        assert len(raw) > len(proper)
        assert ref.quota_table(raw, n) == ref.quota_table(proper, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_reference_agrees_with_library_on_every_rule(n):
    seen = set()
    for default in "ba":
        for mask in range(2**n):
            subset = [i + 1 for i in range(n) if mask >> i & 1]
            seq = subset_to_proper(subset, Alternative(default), n)
            quotas = ref.subset_to_proper(subset, default, n)
            assert list(seq.quotas) == quotas
            assert ref.is_proper(quotas, n) and is_proper(seq)
            table = ref.quota_table(quotas, n)
            assert table == to_table(seq).outcome_string()
            assert ref.find_count_manipulation(table, n) is None
            seen.add(table)
    assert len(seen) == 2 ** (n + 1)
    assert [row[3] for row in ref.family(n)] == [t.outcome_string() for _, t in enumerate_all(n)]
    for default in Alternative:
        for rule in all_rules(n, default):
            assert ref.lp_is_valid(n, default.value, rule.r, rule.thresholds)
            assert ref.lp_table(n, default.value, rule.r, rule.thresholds) == lp_to_table(rule).outcome_string()


def _count_table(n: int, outcomes: str) -> CountTable:
    return CountTable(n, tuple(Alternative(o) for o in outcomes))


@pytest.mark.parametrize("n", range(1, 4))
def test_reference_strategy_proofness_agrees_on_every_table(n):
    for cells in itertools.product("ab", repeat=ref.table_size(n)):
        table = "".join(cells)
        mine = ref.find_count_manipulation(table, n)
        theirs = find_manipulation(_count_table(n, table))
        assert (mine is None) == (theirs is None)
        if theirs is not None:
            assert ref.replays_count_witness(table, n, str(theirs))


def test_reference_full_tables_agree_with_library():
    rng = random.Random(1)
    n = 3
    for _ in range(200):
        counts = "".join(rng.choice("ab") for _ in range(ref.table_size(n)))
        full = ref.expand_to_full(counts, n)
        assert full == "".join(o.value for o in expand_to_full(_count_table(n, counts)).outcomes)
        i = rng.randrange(len(full))
        full = full[:i] + rng.choice("ab") + full[i + 1 :]
        theirs = find_manipulation_full(FullTable(n, tuple(Alternative(o) for o in full)))
        assert (ref.find_full_manipulation(full, n) is None) == (theirs is None)
        if theirs is not None:
            assert ref.replays_full_witness(full, n, str(theirs))


def test_planted_wrong_answer_raises_failed_ratio(tmp_path):
    right = workloads.canon_raw(12, [5, 5, 3, 2, 4, 13], [5, 2, 13], None, tmp_path)
    planted = workloads.canon_raw(12, [5, 5, 3, 2, 4, 13], [5, 9, 13], None, tmp_path)
    samples = run.Samples()
    run.run_commands([right, planted, right], tmp_path, ROOT / "src", samples)
    assert len(samples.latencies) == 3
    assert len(samples.errors) == 1 and "expected 5,9,13" in samples.errors[0]


def _smoke_commands(work: Path) -> list[workloads.Command]:
    """A few tiny commands that reach every traced function."""
    rng = random.Random(3)
    cmds = []
    n = 9
    sp = ref.quota_table(ref.subset_to_proper([2, 5, 7], "b", n), n)
    flipped = workloads.flip_to_manipulable(rng, n, sp)
    for name, table in (("sp.tbl", sp), ("flip.json", flipped)):
        size = workloads._write_count_table(work / name, n, table, name.split(".")[1])
        cmds += [workloads.verify_count(name, n, table, size), workloads.represent_table(name, n, table, size)]
    counts = ref.quota_table(ref.subset_to_proper([1, 3], "a", 4), 4)
    full = ref.expand_to_full(counts, 4)
    for name, table in (("anon.tbl", full), ("mixed.tbl", workloads.unanonymize(rng, 4, full))):
        size = workloads._write_full_table(work / name, 4, table, "text")
        cmds += [workloads.verify_full(name, 4, table, size), workloads.represent_table(name, 4, counts, size, table)]
    proper = ref.subset_to_proper([3, 8, 11], "a", 14)
    raw = workloads.pad_sequence(rng, proper)
    cmds += [
        workloads.convert_lp(10, "b", *workloads.random_lp_rule(rng, 10, "b")),
        workloads.canon_raw(14, raw, proper, "raw.seq", work),
        workloads.canon_subset(14, [2, 9], "b"),
        workloads.eval_profile(14, raw, 3, 4),
        workloads.convert_sequence(14, proper),
        workloads.enum_family(4, "text", "f.txt"),
        workloads.enum_family(5, "json", "f.json"),
    ]
    return cmds


def test_traced_smoke_run_emits_every_metric(tmp_path):
    modules = replay.load_library(ROOT / "src")
    commands = _smoke_commands(tmp_path)
    _, plain = replay.replay(modules, commands, tmp_path)
    assert replay.failures(commands, plain, tmp_path) == []
    _, stats, results = replay.traced_replay(modules, commands, tmp_path, tmp_path / "spans.csv")
    assert replay.failures(commands, results, tmp_path) == []
    measured = [m for m in replay.PER_LAYER if not m.endswith(".noassert") and m != "trace.overhead_ratio"]
    assert [m for m in measured if not stats.get(m)] == []
    lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert lines[0] == "id,parent,name,start_s,end_s" and len(lines) > len(commands)
    # the wrappers are gone again
    assert modules["engine"].to_table is to_table


def test_family_and_sequences_bypass_their_layers(tmp_path):
    modules = replay.load_library(ROOT / "src")
    by_kind = {"enum": [], "sequence": []}
    for cmd in _smoke_commands(tmp_path):
        if cmd.kind == "enum":
            by_kind["enum"].append(cmd)
        elif cmd.kind in ("canon", "canon-subset", "eval", "convert-seq"):
            by_kind["sequence"].append(cmd)
    _, family, _ = replay.traced_replay(modules, by_kind["enum"], tmp_path, tmp_path / "s1.csv")
    assert not any(k.startswith(("canonical.", "oracle.", "extraction.")) and k.endswith(".calls") for k in family)
    _, sequences, _ = replay.traced_replay(modules, by_kind["sequence"], tmp_path, tmp_path / "s2.csv")
    assert not any(k.startswith(("oracle.", "extraction.")) and k.endswith(".calls") for k in sequences)
    assert "fileformats.parse_table.calls" not in sequences


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(replay.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.per_layer_unit(m) for m in replay.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

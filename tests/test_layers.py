"""Smoke test of tools/layers.py on tiny inputs; it never compares timings."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layers.py"


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
    assert set(record["timings_s"]) == set(timings)
    json.dumps(record)


def test_layers_baseline_inputs_are_fixed():
    layers = load_tool()
    names = [name for name, _ in layers.baseline_cases()]
    assert len(names) == len(set(names)) == 14
    sequence = layers.random_sequence(500, 300, layers.RANDOM_SEED)
    assert len(sequence) == 300 and sequence[-1] == 501
    assert sequence == layers.random_sequence(500, 300, layers.RANDOM_SEED)

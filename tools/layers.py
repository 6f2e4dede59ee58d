"""Per-layer in-process timings at fixed sizes, written to BENCH_<label>.json.

    PYTHONPATH=src python3 tools/layers.py --label pr6
    PYTHONPATH=src python3 -O tools/layers.py --label pr6-noassert

Each timing is the median of REPEATS perf_counter runs of one library
call on a fixed input: tabulation, the strategy-proofness check,
extraction and representation of two tables (n=200 and n=500),
canonicalization of a seeded 300-entry sequence at n=500 and of the
constant rule at n=3000, enumeration at n=10, 12 and 14, and the
exhaustive strategy-proof filter at n=5.  The `startup.*` timings are
the wall times of a fresh interpreter that imports quotamaj, and of one
small command per CLI verb, each run as a subprocess on the sources next
to this script.  The file also records the Python version, whether
assertions were on, and the wall time and counts of one run of the
tier-1 suite.  Timings depend on the machine; compare files written on
the same one.  This script is not part of the test suite, so timing
noise can never fail it.
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

from quotamaj import (
    QuotaSeq,
    canonicalize,
    enumerate_all,
    exhaustive_sp_family,
    extract,
    find_manipulation,
    represent,
    to_table,
)
from quotamaj.fileformats import format_count_table

ROOT = Path(__file__).resolve().parents[1]

TABLE_RULES = ((200, (100, 140, 60, 180, 20, 201)), (500, (250, 350, 150, 450, 50, 501)))
RANDOM_SEED = 2020
REPEATS = 3
RUNNER = "import sys; from quotamaj.cli import main; sys.exit(main(sys.argv[1:]))"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def table_cases(n: int, quotas: tuple[int, ...]) -> list[tuple[str, object]]:
    """The four table layers on the table of one rule."""
    seq = QuotaSeq(n, quotas)
    table = to_table(seq)
    return [
        (f"to_table.n{n}", partial(to_table, seq)),
        (f"find_manipulation.n{n}", partial(find_manipulation, table)),
        (f"extract.n{n}", partial(extract, table)),
        (f"represent.n{n}", partial(represent, table)),
    ]


def random_sequence(n: int, entries: int, seed: int) -> tuple[int, ...]:
    """Seeded interior entries closed by the terminal n+1."""
    rng = random.Random(seed)
    return tuple(rng.randint(1, n) for _ in range(entries - 1)) + (n + 1,)


def baseline_cases() -> list[tuple[str, object]]:
    cases = []
    for n, quotas in TABLE_RULES:
        cases += table_cases(n, quotas)
    cases.append(
        ("canonicalize.random300.n500", partial(canonicalize, random_sequence(500, 300, RANDOM_SEED), 500))
    )
    cases.append(("canonicalize.constant.n3000", partial(canonicalize, (0,), 3000)))
    cases += [(f"enumerate_all.n{n}", partial(enumerate_all, n)) for n in (10, 12, 14)]
    cases.append(("exhaustive_sp_family.n5", partial(exhaustive_sp_family, 5)))
    return cases


def startup_commands(table: str) -> dict[str, list[str]]:
    """Interpreter arguments of the bare import and of one small command per
    CLI verb; `table` names a count-table file."""
    worked = ["--n", "11", "--quotas", "5,2,12"]
    verbs = {
        "eval": ["eval", *worked, "--na", "3", "--nb", "6"],
        "canon": ["canon", *worked],
        "count": ["count", "--n", "11"],
        "verify": ["verify", "--table", table],
        "represent": ["represent", "--table", table],
        "convert": ["convert", *worked],
        "enum": ["enum", "--n", "10"],
    }
    return {
        "startup.import": ["-c", "import quotamaj"],
        **{f"startup.{verb}": ["-c", RUNNER, *argv] for verb, argv in verbs.items()},
    }


def startup_timings(repeats: int) -> dict[str, float]:
    """Median wall seconds of each start-up command, run as a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        table = Path(work) / "worked.tbl"
        table.write_text(format_count_table(to_table(QuotaSeq(11, (5, 2, 12)))), encoding="utf-8")
        cases = [
            (name, partial(subprocess.run, [sys.executable, *args], cwd=work, env=env,
                           stdout=subprocess.DEVNULL, check=True))
            for name, args in startup_commands(str(table)).items()
        ]
        return measure(cases, repeats)


def tier1_summary(last_line: str) -> dict[str, int]:
    """Passed, skipped, failed and error counts from pytest's closing line."""
    counts = dict.fromkeys(("passed", "skipped", "failed", "error"), 0)
    for number, outcome in re.findall(r"(\d+) (passed|skipped|failed|error)", last_line):
        counts[outcome] = int(number)
    return counts


def tier1_run() -> dict:
    """Wall time and outcome counts of one run of the tier-1 suite."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), **tier1_summary(lines[-1] if lines else "")}


def measure(cases, repeats: int) -> dict[str, float]:
    """Median seconds of each case over `repeats` runs."""
    timings = {}
    for name, thunk in cases:
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            thunk()
            runs.append(time.perf_counter() - start)
        timings[name] = statistics.median(runs)
    return timings


def bench_record(label: str, repeats: int, timings: dict[str, float]) -> dict:
    return {
        "label": label,
        "python": platform.python_version(),
        "assertions": "off" if sys.flags.optimize else "on",
        "repeats": repeats,
        "timings_s": {name: round(seconds, 6) for name, seconds in timings.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    args = parser.parse_args(argv)
    timings = measure(baseline_cases(), REPEATS)
    timings.update(startup_timings(REPEATS))
    record = bench_record(args.label, REPEATS, timings)
    record["tier1"] = tier1_run()
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

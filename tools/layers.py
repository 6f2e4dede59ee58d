"""Per-layer in-process timings at fixed sizes, written to BENCH_<label>.json.

    PYTHONPATH=src python3 tools/layers.py --label pr6
    PYTHONPATH=src python3 -O tools/layers.py --label pr6-noassert

Each timing is the median of REPEATS perf_counter runs of one library
call on a fixed input: tabulation, the strategy-proofness check,
extraction and representation of two tables (n=200 and n=500),
canonicalization of a seeded 300-entry sequence at n=500 and of the
constant rule at n=3000, enumeration at n=10, 12 and 14, and the
exhaustive strategy-proof filter at n=5.  The file also records the
Python version and whether assertions were on.  Timings depend on the
machine; compare files written on the same one.  This script is not part
of the test suite, so timing noise can never fail it.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
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

TABLE_RULES = ((200, (100, 140, 60, 180, 20, 201)), (500, (250, 350, 150, 450, 50, 501)))
RANDOM_SEED = 2020
REPEATS = 3


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
    record = bench_record(args.label, REPEATS, measure(baseline_cases(), REPEATS))
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process replay of a workload's argv stream through quotamaj.cli.main.

The traced replay wraps each layer's public functions from outside the
library: every namespace that bound a wrapped function gets the wrapper,
so calls made through `canonical.to_table`, `lp.represent` or
`extraction.canonicalize` are seen as well as calls through the defining
module.  Each call becomes a span (id, parent id, name, start, end) kept in
memory and written out when the replay ends.  A layer's self time is its
spans' time minus the time of their direct child spans.

Run as a script to make the traced replay of one workload and print its
per-layer numbers as JSON; `run.py` does this under `python -O` to time
the layers without the library's asserts:

    python -O benchmarks/replay.py --workload tables --seed 1 --work DIR --src src
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads
from workloads import Command, Result

# module -> functions wrapped in it
LAYERS = {
    "cli": ("main",),
    "fileformats": ("parse_table", "format_family"),
    "engine": ("to_table", "evaluate"),
    "canonical": ("canonicalize", "delete_dominated"),
    "extraction": ("extract", "represent"),
    "oracle": ("find_manipulation", "check_anonymous", "reduce_to_counts", "find_manipulation_full"),
    "enumeration": ("enumerate_all", "subset_to_proper"),
    "lp": ("proper_to_lp", "lp_to_table", "lp_to_proper"),
}


def _count_profiles(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def _scanned(table, found) -> int:
    # find_manipulation walks profiles in (na, nb) order and stops at the witness
    n = table.n
    if found is None:
        return _count_profiles(n)
    na, nb = found.profile.na, found.profile.nb
    return na * (n + 1) - na * (na - 1) // 2 + nb + 1


# name -> (args, result) -> {stat: amount}, for stats beyond calls and time
COUNTERS = {
    "fileformats.parse_table": lambda a, r: {"bytes": len(a[0].encode())},
    "fileformats.format_family": lambda a, r: {"bytes": len(r.encode())},
    "engine.to_table": lambda a, r: {
        "profiles": _count_profiles(a[0].n),
        "quota_entries": len(a[0].quotas),
    },
    "canonical.canonicalize": lambda a, r: {"entries_in": len(a[0]), "entries_out": len(r.quotas)},
    "extraction.extract": lambda a, r: {"levels": len(r.pairs)},
    "oracle.find_manipulation": lambda a, r: {
        "profiles_scanned": _scanned(a[0], r),
        "found": r is not None,
    },
    "oracle.check_anonymous": lambda a, r: {"profiles": len(a[0].outcomes)},
    "oracle.find_manipulation_full": lambda a, r: {"found": r is not None},
    "enumeration.enumerate_all": lambda a, r: {"rules": len(r)},
}

# The per-layer metrics of the traced replay, in BENCHMARK.json's order;
# each self time is repeated from the `python -O` replay as `.noassert`.
TRACED = (
    "cli.main.calls",
    "cli.main.self_s",
    "fileformats.parse_table.calls",
    "fileformats.parse_table.self_s",
    "fileformats.parse_table.bytes",
    "fileformats.format_family.self_s",
    "fileformats.format_family.bytes",
    "engine.to_table.calls",
    "engine.to_table.self_s",
    "engine.to_table.profiles",
    "engine.to_table.quota_entries",
    "engine.evaluate.calls",
    "engine.evaluate.self_s",
    "canonical.canonicalize.calls",
    "canonical.canonicalize.self_s",
    "canonical.canonicalize.total_s",
    "canonical.canonicalize.entries_in",
    "canonical.canonicalize.entries_out",
    "canonical.delete_dominated.calls",
    "canonical.delete_dominated.self_s",
    "canonical.assert_tabulations",
    "extraction.extract.calls",
    "extraction.extract.self_s",
    "extraction.extract.total_s",
    "extraction.extract.levels",
    "extraction.represent.self_s",
    "extraction.represent.total_s",
    "oracle.find_manipulation.calls",
    "oracle.find_manipulation.self_s",
    "oracle.find_manipulation.profiles_scanned",
    "oracle.find_manipulation.found",
    "oracle.check_anonymous.self_s",
    "oracle.check_anonymous.profiles",
    "oracle.reduce_to_counts.self_s",
    "oracle.find_manipulation_full.self_s",
    "oracle.find_manipulation_full.found",
    "enumeration.enumerate_all.self_s",
    "enumeration.enumerate_all.total_s",
    "enumeration.enumerate_all.rules",
    "enumeration.subset_to_proper.calls",
    "enumeration.subset_to_proper.self_s",
    "lp.proper_to_lp.self_s",
    "lp.lp_to_table.self_s",
    "lp.lp_to_proper.total_s",
    "core.all_count_profiles.hit_ratio",
    "trace.overhead_ratio",
)
SELF_TIMED = tuple(m.removesuffix(".self_s") for m in TRACED if m.endswith(".self_s"))
PER_LAYER = TRACED + tuple(f"{name}.self_s.noassert" for name in SELF_TIMED)


def load_library(src: Path):
    """Import quotamaj from `src` and return its modules by short name."""
    sys.path.insert(0, str(src))
    package = importlib.import_module("quotamaj")
    modules = {"quotamaj": package}
    for name in list(LAYERS) + ["core"]:
        modules[name] = importlib.import_module(f"quotamaj.{name}")
    return modules


def clear_caches(modules) -> None:
    """Empty every lru_cache in the library, as a fresh process has them."""
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Tracer:
    """Spans and counters for the wrapped functions, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.stack = [0]
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans) + 1, stack[-1], name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                for stat, amount in counter(args, result).items():
                    counts[f"{name}.{stat}"] += amount
            return result

        return wrapper

    def install(self, modules) -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                out.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")

    def stats(self) -> dict[str, float]:
        """calls, self_s and total_s per function, plus the counters."""
        by_id = {span[0]: span for span in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float, self.counts)
        for sid, parent, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[sid]
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:  # outermost call of this function
                out[f"{name}.total_s"] += end - start
            if name == "engine.to_table" and parent in by_id and by_id[parent][2].startswith("canonical."):
                out["canonical.assert_tabulations"] += 1
        return out


def replay(modules, commands: list[Command], work: Path) -> tuple[float, list[Result]]:
    """Run each command through cli.main in `work`; (wall seconds, results)."""
    cli = modules["cli"]
    results = []
    clear_caches(modules)
    home = os.getcwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(cmd.argv))
                except SystemExit as exit_:
                    code = exit_.code if isinstance(exit_.code, int) else 1
                except Exception:  # a traceback is a wrong answer, not a benchmark crash
                    traceback.print_exc()
                    code = 1
            results.append(Result(code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start
    finally:
        os.chdir(home)
    return wall, results


def failures(commands: list[Command], results: list[Result], work: Path) -> list[str]:
    errors = []
    for cmd, result in zip(commands, results):
        problem = cmd.check(result, work)
        if problem is not None:
            errors.append(f"{' '.join(cmd.argv)[:120]}: {problem}")
    return errors


def traced_replay(modules, commands: list[Command], work: Path, spans_path: Path):
    """(wall seconds, per-function stats, results) of a traced replay."""
    tracer = Tracer()
    tracer.install(modules)
    try:
        wall, results = replay(modules, commands, work)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    stats = tracer.stats()
    info = modules["core"].all_count_profiles.cache_info()
    lookups = info.hits + info.misses
    stats["core.all_count_profiles.hit_ratio"] = info.hits / lookups if lookups else 0.0
    return wall, stats, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()
    modules = load_library(args.src.resolve())
    work = args.work.resolve()
    commands = [c for c in workloads.build_round(args.workload, args.seed, 0, work) if c.traced]
    spans = work.parent / f"spans-{args.workload}{'.noassert' if sys.flags.optimize else ''}.csv"
    _, stats, results = traced_replay(modules, commands, work, spans)
    errors = failures(commands, results, work)
    print(json.dumps({"stats": stats, "attempted": len(commands), "errors": errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

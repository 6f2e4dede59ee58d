"""End-to-end benchmark of the quotamaj command line.

    python3 benchmarks/run.py --workload tables --seed 1 --seconds 38 --trace 0

Run from the repository root.  With --trace 0 it drives the CLI as a
subprocess, one command at a time from one client (a closed loop), checks
every answer against the reference module, and reports the end-to-end
metrics.  With --trace 1 it replays the traced slice of the first round
in-process through quotamaj.cli.main, untraced, traced, and traced under
`python -O`, and reports the per-layer metrics.  The last line of standard
output is the result as JSON; the line before it records the run's
settings.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import replay
import workloads
from workloads import Result

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_op": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 21
# nominal command wall time of one round, in seconds, on a 2-vCPU VM
ROUND_SECONDS = {"tables": 17.5, "sequences": 17.5, "family": 21.5}
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it
RUNNER = "import sys; from quotamaj.cli import main; sys.exit(main(sys.argv[1:]))"
NOASSERT_TIMEOUT_S = 150


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", "_s.noassert")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "B" if name.endswith(".bytes") else "count"


def spawn(argv: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path):
    """Run one child; (wall seconds, user+sys CPU seconds, max RSS in KiB, exit code)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def tail(samples: list[float], per_round: int) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves TAIL_BEYOND
    samples above it within one round.

    Fixing the percentile by the round's size rather than the run's keeps it
    the same however many rounds the run has.
    """
    pct = 100.0 * max(1, per_round - TAIL_BEYOND) / per_round
    ordered = sorted(samples)
    k = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[k], pct


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def input_sizes(commands) -> dict:
    sizes = [c.n for c in commands]
    lengths = [c.length for c in commands if c.length]
    return {
        "n_min": min(sizes),
        "n_max": max(sizes),
        "sequence_length_min": min(lengths, default=0),
        "sequence_length_max": max(lengths, default=0),
        "input_bytes": sum(c.input_bytes for c in commands),
    }


@dataclass
class Samples:
    latencies: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_kib: int = 0
    errors: list[str] = field(default_factory=list)


def run_commands(commands, work: Path, src: Path, samples: Samples) -> None:
    """Run each command as a CLI subprocess in `work`, checking each answer
    after its timed interval.  Before every `len(commands) / SETUP_SAMPLES`-th
    command a fresh interpreter imports quotamaj, so the set-up samples are
    spread over the whole run rather than taken at one moment of it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out, err = work / "stdout.txt", work / "stderr.txt"
    importing = {len(commands) * i // SETUP_SAMPLES for i in range(SETUP_SAMPLES)}
    for i, cmd in enumerate(commands):
        if i in importing:
            samples.setup.append(spawn([sys.executable, "-c", "import quotamaj"], work, env, out, err)[0])
        wall, cpu, peak, code = spawn([sys.executable, "-c", RUNNER, *cmd.argv], work, env, out, err)
        samples.latencies.append(wall)
        samples.cpu_s += cpu
        samples.peak_rss_kib = max(samples.peak_rss_kib, peak)
        result = Result(code, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"))
        problem = cmd.check(result, work)
        if problem is not None:
            samples.errors.append(f"{' '.join(cmd.argv)[:120]}: {problem}")


def round_count(workload: str, seconds: float) -> int:
    """Rounds that fill `seconds` at the nominal round cost.  The count
    depends only on the arguments, never on how fast the machine is at the
    moment, so every run of a workload and seconds runs the same commands."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def end_to_end(workload: str, seed: int, seconds: float, root: Path, work: Path):
    """Closed loop over whole rounds; (metrics, attempted, errors, record)."""
    rounds = round_count(workload, seconds)
    commands = [c for i in range(rounds) for c in workloads.build_round(workload, seed, i, work)]
    samples = Samples()
    run_commands(commands, work, root / "src", samples)
    latencies = samples.latencies
    tail_value, tail_pct = tail(latencies, len(commands) // rounds)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "cpu_s_per_op": samples.cpu_s / len(latencies),
        "setup_s": statistics.median(samples.setup),
        "peak_rss_mb": samples.peak_rss_kib / 1024,
    }
    record = {
        "rounds": rounds,
        "commands": len(latencies),
        "command_wall_s": sum(latencies),
        "tail_percentile": round(tail_pct, 2),
        "tail_samples_beyond": sum(v > tail_value for v in latencies),
        "failed_ratio": len(samples.errors) / len(latencies),
        "setup_samples": len(samples.setup),
        **input_sizes(commands),
    }
    return metrics, len(latencies), samples.errors, record


def traced(workload: str, seed: int, root: Path, work: Path):
    """Untraced, traced and `-O` traced replays; (metrics, attempted, errors, record)."""
    modules = replay.load_library(root / "src")
    commands = [c for c in workloads.build_round(workload, seed, 0, work) if c.traced]
    plain_wall, plain = replay.replay(modules, commands, work)
    wall, stats, results = replay.traced_replay(
        modules, commands, work, work.parent / f"spans-{workload}.csv"
    )
    errors = replay.failures(commands, plain, work) + replay.failures(commands, results, work)
    child = subprocess.run(
        [
            sys.executable, "-O", str(HERE / "replay.py"),
            "--workload", workload, "--seed", str(seed),
            "--work", str(work), "--src", str(root / "src"),
        ],
        cwd=root, capture_output=True, text=True, timeout=NOASSERT_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise RuntimeError(f"python -O replay failed:\n{child.stderr}")
    noassert = json.loads(child.stdout.splitlines()[-1])
    errors += noassert["errors"]
    stats["trace.overhead_ratio"] = wall / plain_wall
    for name in replay.SELF_TIMED:
        stats[f"{name}.self_s.noassert"] = noassert["stats"].get(f"{name}.self_s", 0.0)
    metrics = {name: float(stats.get(name, 0.0)) for name in replay.PER_LAYER}
    record = {
        "commands": len(commands),
        "replay_untraced_s": plain_wall,
        "replay_traced_s": wall,
        **input_sizes(commands),
    }
    return metrics, 2 * len(commands) + noassert["attempted"], errors, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "quotamaj" / "cli.py").is_file():
        print(f"error: no quotamaj sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, errors, record = traced(args.workload, args.seed, root, work)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, attempted, errors, record = end_to_end(
                args.workload, args.seed, args.seconds, root, work
            )
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in errors[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps({"record": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "asserts": "off" if sys.flags.optimize else "on",
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        **record,
    }}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

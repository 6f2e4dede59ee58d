"""Per-layer in-process timings at fixed sizes, written to BENCH_<label>.json.

    python3 tools/layers.py --label pr6
    python3 -O tools/layers.py --label pr6-noassert
    python3 tools/layers.py --label pr6 --against HEAD~1

Each timing is the minimum of REPEATS perf_counter runs of one call on
a fixed input, each run on a cold library: every `lru_cache` of the
loaded quotamaj modules is cleared before it, outside the timing, as a
fresh command has them.  Noise on a shared machine only adds time, so
the best run is the steadiest figure; the file records it to 4
significant digits.  The functions named `*_cases` list what is timed.

With `--against <rev>`, the tree of git revision <rev> is exported to a
temporary directory, its package loads as `quotamaj_parent` and this
script loads again on it, and every case runs on both trees in this one
process, one run at a time, alternating which tree runs first.  The file
then records the parent's minima, the speed-up (the parent's minimum
over this tree's) and `wins`, how many of the REPEATS pairs of runs this
tree ran faster.  Read a speed-up as resolved only at REPEATS wins of
REPEATS, and a slowdown only at none; README.md, "Layer timings", gives
the A/A figures that set this rule.  Compare trees only within one
invocation, and files only when written on the same machine.
"""

import argparse
import ast
import importlib.util
import io
import json
import platform
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which may name another tree to time
import quotamaj
from quotamaj import (
    Alternative,
    QuotaSeq,
    all_count_profiles,
    canonicalize,
    cli,
    enumerate_all,
    extract,
    find_manipulation,
    represent,
    to_table,
)
from quotamaj.fileformats import STRUCTURED, TEXT, format_count_table, format_full_table, parse_table
from quotamaj.lp import LPRule, lp_to_proper, proper_to_lp
from quotamaj.oracle import expand_to_full, find_manipulation_full, reduce_to_counts

sys.path += [str(ROOT / "tests"), str(ROOT / "benchmarks")]
import workloads  # noqa: E402  the shapes of the CLI benchmark's inputs; it does not import quotamaj
from certificates import exhaustive_sp_family  # noqa: E402  the tests' search, on the imported quotamaj
# the sources of the imported quotamaj, which the start-up subprocesses run
SRC = Path(quotamaj.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC))

TABLE_RULES = ((200, (100, 140, 60, 180, 20, 201)), (500, (250, 350, 150, 450, 50, 501)))
RANDOM_SEED = 2020
REPEATS = 5
RUNNER = "import sys; from quotamaj.cli import main; sys.exit(main(sys.argv[1:]))"
# runs the code in argv[1] on the arguments after it, then prints every module it loaded to stderr
LISTER = (
    "import sys\n"
    "try:\n"
    "    exec(sys.argv.pop(1))\n"
    "finally:\n"
    "    print(*sorted(sys.modules), file=sys.stderr)\n"
)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
#: the top-level name under which --against loads the tree of <rev>
PARENT = "quotamaj_parent"
#: the full table at n=8, which is anonymous, that the reader, the writer and reduce_to_counts read
FULL = expand_to_full(to_table(QuotaSeq(8, (4, 6, 2, 9))))


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
    """The table layers at n=200 and 500, canonicalization of a seeded
    300-entry sequence at n=500 and of the constant rule at n=3000,
    enumeration at n=10, 12 and 14, and the tests' exhaustive
    strategy-proof search (tests/certificates.py) at n=5."""
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


def shuffled(text: str, seed: int) -> str:
    """A table file with its entries in a seeded random order."""
    rng = random.Random(seed)
    if text.startswith("{"):
        data = json.loads(text)
        rng.shuffle(data["entries"])
        return json.dumps(data, indent=2)
    header, *body = text.splitlines()
    rng.shuffle(body)
    return "\n".join([header, *body]) + "\n"


def file_cases(n: int = 1000) -> list[tuple[str, object]]:
    """The table reader and writers on three tables: a count table at
    n=140, a full table at n=8 and a count table at `n`.

    parse_table reads the first two in both formats from files in the
    canonical order, which it reads in whole-table passes, then the first
    in both formats with its entries shuffled, which it reads entry by
    entry, then the third as text in both orders; at n=1000 it has
    501,501 entries, where the reader's per-entry objects dominate.
    format_count_table writes the third and format_full_table the second,
    each in both formats."""
    count = to_table(QuotaSeq(140, (70, 100, 40, 141)))
    large = to_table(QuotaSeq(n, (n // 2, 7 * n // 10, 3 * n // 10, n + 1)))
    large_text = format_count_table(large)
    small = (("count.n140", count, format_count_table), ("full.n8", FULL, format_full_table))
    formats = (("text", TEXT), ("json", STRUCTURED))
    return [
        *((f"parse_table.{kind}.{fmt_name}", partial(parse_table, write(table, fmt)))
          for kind, table, write in small for fmt_name, fmt in formats),
        *((f"parse_table.count.n140.shuffled.{fmt_name}",
           partial(parse_table, shuffled(format_count_table(count, fmt), RANDOM_SEED)))
          for fmt_name, fmt in formats),
        (f"parse_table.count.n{n}.text", partial(parse_table, large_text)),
        (f"parse_table.count.n{n}.shuffled.text", partial(parse_table, shuffled(large_text, RANDOM_SEED))),
        *((f"format_{kind}_table.{size}.{fmt_name}", partial(write, table, fmt))
          for kind, size, table, write in (("count", f"n{n}", large, format_count_table),
                                           ("full", "n8", FULL, format_full_table))
          for fmt_name, fmt in (("text", TEXT), ("structured", STRUCTURED))),
    ]


def enum_render(n: int, fmt: str) -> None:
    """Run what `enum --n <n> --format <fmt>` runs, dropping the output
    where the command would write it."""
    emit, cli._emit = cli._emit, lambda text, out: None
    try:
        cli.cmd_enum(argparse.Namespace(n=n, format=fmt, out=None))
    finally:
        cli._emit = emit


def enum_cases() -> list[tuple[str, object]]:
    """The `enum` command's render at n=10, 11, 12 and 14, in both formats;
    the `family` benchmark's median command is at n=10 and its tail at n=11."""
    return [
        (f"enum.n{n}.{fmt_name}", partial(enum_render, n, fmt))
        for n in (10, 11, 12, 14)
        for fmt_name, fmt in (("text", TEXT), ("structured", STRUCTURED))
    ]


def search_cases(work: Path) -> list[tuple[str, object]]:
    """What `convert` and `verify` run on the largest input of each kind
    that benchmarks/workloads.py builds, built its way from RANDOM_SEED:
    proper_to_lp on a proper sequence at n=200 with 24 quotas
    (`sequences`), lp_to_proper on a rule at n=80 (`tables`), and for the
    full tables of `tables`, reduce_to_counts on FULL, which is anonymous,
    then on a JSON file of a table at n=7 with one profile flipped,
    `verify`'s first step, cli._load_counts, whose reduction fails, and
    the find_manipulation_full that `verify` then runs on that table,
    whose shifts cover the whole mask whether or not they find a
    witness."""
    rng = random.Random(RANDOM_SEED)
    proper = workloads.ref.subset_to_proper(workloads._stratified_subset(rng, 200, 24), "b", 200)
    r, thresholds = workloads.random_lp_rule(rng, 80, "a")
    full = workloads.unanonymize(rng, 7, workloads.ref.expand_to_full(workloads.sp_table(rng, 7, "a", 3), 7))
    path = work / "full.json"
    workloads._write_full_table(path, 7, full, "json")
    return [
        ("proper_to_lp.n200", partial(proper_to_lp, QuotaSeq(200, proper))),
        ("lp_to_proper.n80", partial(lp_to_proper, LPRule(80, Alternative.A, r, tuple(thresholds)))),
        ("reduce_to_counts.n8", partial(reduce_to_counts, FULL)),
        ("load_counts.full.n7.json", partial(cli._load_counts, str(path))),
        ("find_manipulation_full.n7", partial(find_manipulation_full, parse_table(path.read_text()))),
    ]


def startup_commands(table: str) -> dict[str, tuple[list[str], int]]:
    """Interpreter arguments and exit status of the bare import, of one
    small command per CLI verb, of the other command shapes that the CLI
    benchmark sends, and of the two command lines that argparse reads, `-h`
    and `verify` without its required `--table`; `table` names a text
    count-table file, which `worked_table` writes next to its JSON form and
    to a sequence file.  tests/test_package.py pins what each line loads
    and prints."""
    worked = ["--n", "11", "--quotas", "5,2,12"]
    verbs = {
        "eval": ["eval", *worked, "--na", "3", "--nb", "6"],
        "canon": ["canon", *worked],
        "count": ["count", "--n", "11"],
        "verify": ["verify", "--table", table],
        "represent": ["represent", "--table", table],
        "convert": ["convert", *worked],
        "enum": ["enum", "--n", "10"],
        "canon.subset": ["canon", "--n", "11", "--subset", "2,5", "--default", "b"],
        "canon.seq_file": ["canon", "--seq-file", str(Path(table).with_suffix(".seq"))],
        "verify.json": ["verify", "--table", str(Path(table).with_suffix(".json"))],
        "enum.structured": ["enum", "--n", "10", "--format", "structured"],
        "convert.rule": ["convert", "--n", "11", "--default", "a", "--r", "3", "--thresholds", "1,2,2"],
        "help": ["-h"],
    }
    return {
        "startup.import": (["-c", "import quotamaj"], 0),
        **{f"startup.{verb}": (["-c", RUNNER, *argv], 0) for verb, argv in verbs.items()},
        "startup.usage_error": (["-c", RUNNER, "verify"], 2),
    }


def worked_table(work: Path) -> str:
    """Write the count table of the worked rule into `work` as text and as
    JSON, and the rule padded with a dominated entry as a sequence file;
    return the text table's path."""
    table = to_table(QuotaSeq(11, (5, 2, 12)))
    (work / "worked.json").write_text(format_count_table(table, STRUCTURED), encoding="utf-8")
    (work / "worked.seq").write_text("n=11\n5,2,7,12\n", encoding="utf-8")
    path = work / "worked.tbl"
    path.write_text(format_count_table(table), encoding="utf-8")
    return str(path)


def run_expecting(status: int, args: list[str], stdout=subprocess.DEVNULL, env=ENV,
                  **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter with `args`, by default on the sources of the
    imported quotamaj, as subprocess.run(..., **kwargs) does, with its
    output sent to `stdout` and its stderr kept as text, for at most 60 s;
    raise RuntimeError, with the end of that stderr, unless it exits with
    `status`."""
    proc = subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=60, **kwargs)
    if proc.returncode != status:
        raise RuntimeError(f"{args} exited with {proc.returncode}, not {status}:\n{proc.stderr[-2000:]}")
    return proc


def list_modules(status: int, code: str, *argv: str, **kwargs) -> tuple[str, list[str]]:
    """Run `code` on `argv` under `python -S` through LISTER, as
    run_expecting does with `kwargs`; return its stdout and every module it
    loaded, sorted.  Without `site`, no `.pth` file of the machine's
    site-packages loads a module before the code runs and hides its import."""
    proc = run_expecting(status, ["-S", "-c", LISTER, code, *argv], stdout=subprocess.PIPE, **kwargs)
    return proc.stdout, proc.stderr.splitlines()[-1].split()


def startup_listings(work: Path) -> dict[str, tuple[str, list[str]]]:
    """list_modules of each line of startup_commands, from one run of each
    in `work`, where worked_table writes the files the lines read."""
    return {name: list_modules(status, code, *argv, cwd=work)
            for name, ((_, code, *argv), status) in startup_commands(worked_table(work)).items()}


def ast_nodes(path: Path) -> int:
    """The nodes of the module's syntax tree: how much there is to compile."""
    return sum(1 for _ in ast.walk(ast.parse(path.read_bytes())))


def startup_loads(listings: dict[str, tuple[str, list[str]]]) -> dict[str, dict]:
    """The package modules each start-up line loads, by its entry of
    startup_listings, and their source lines and AST nodes: what the line
    compiles when no bytecode is cached."""
    loads = {}
    for name, (_, loaded) in listings.items():
        modules = [m for m in loaded if m.split(".")[0] == "quotamaj"]
        files = [SRC / "quotamaj" / f"{m.partition('.')[2] or '__init__'}.py" for m in modules]
        loads[name] = {
            "modules": modules,
            "source_lines": sum(path.read_bytes().count(b"\n") for path in files),
            "ast_nodes": sum(map(ast_nodes, files)),
        }
    return loads


def all_cases(work: Path) -> list[tuple[str, object]]:
    """Every case this script times, in the order of its output; each
    start-up command runs as a subprocess in `work`, where its files are
    written, on the sources of the imported quotamaj.  all_count_profiles
    at n=300, on an empty cache, makes 45,451 checked CountProfile builds,
    each through `_Value.__init__`."""
    commands = startup_commands(worked_table(work))
    return [
        *baseline_cases(), ("values.count_profiles.n300", partial(all_count_profiles, 300)),
        *file_cases(), *enum_cases(),
        *((name, partial(run_expecting, status, args, cwd=work)) for name, (args, status) in commands.items()),
        *search_cases(work),
    ]


def tier1_summary(last_line: str) -> dict[str, int]:
    """Passed, skipped, failed and error counts from pytest's closing line."""
    counts = dict.fromkeys(("passed", "skipped", "failed", "error"), 0)
    for number, outcome in re.findall(r"(\d+) (passed|skipped|failed|error)", last_line):
        counts[outcome] = int(number)
    return counts


def tier1_run() -> dict:
    """Wall time and outcome counts of one run of the tier-1 suite."""
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), **tier1_summary(lines[-1] if lines else "")}


def source_lines(root: Path = ROOT) -> dict:
    """Line counts, as `wc -l` gives them, of src/quotamaj/*.py and tests/*.py."""
    def count(path: Path) -> int:
        return path.read_bytes().count(b"\n")

    modules = {path.name: count(path) for path in sorted((root / "src" / "quotamaj").glob("*.py"))}
    return {
        "src_total": sum(modules.values()),
        "src_modules": modules,
        "tests_total": sum(count(path) for path in (root / "tests").glob("*.py")),
    }


def loaded(*tops: str) -> list[str]:
    """The names in sys.modules whose top-level name is one of `tops`."""
    return [name for name in sys.modules if name.split(".")[0] in tops]


def clear_caches() -> None:
    """Empty every lru_cache of the loaded trees, as a fresh command has them."""
    for name in loaded("quotamaj", PARENT):
        for value in vars(sys.modules[name]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def run_once(thunk) -> float:
    """Seconds of one call of `thunk` on a cold library."""
    clear_caches()
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def measure(trees: list[list[tuple[str, object]]], repeats: int) -> dict[str, list[list[float]]]:
    """Seconds of `repeats` runs of each case on each tree, by case and
    then tree.  `trees` holds one case list per tree, all with the names of
    the first; each case runs on every tree in turn, and which tree runs
    first alternates from run to run and from case to case."""
    sides = [dict(cases) for cases in trees]
    runs = {name: [[] for _ in sides] for name in sides[0]}
    for i, name in enumerate(runs):
        for r in range(repeats):
            order = range(len(sides))
            for side in order if (i + r) % 2 else reversed(order):
                runs[name][side].append(run_once(sides[side][name]))
    return runs


def load_parent(src: Path):
    """This script loaded a second time, on the package in `src`, which
    loads as the top-level package PARENT.  While the copy loads,
    `quotamaj` and each of its submodules name PARENT's modules and no
    `certificates` is loaded, so every import of the copy, and of the
    tests/certificates.py it loads, binds to PARENT; afterwards those
    entries of sys.modules and sys.path are as they were."""
    package_dir = src / "quotamaj"
    spec = importlib.util.spec_from_file_location(
        PARENT, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = sys.modules[PARENT] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    aliases = {"quotamaj": package}
    for path in sorted(package_dir.glob("*.py")):
        if not path.stem.startswith("__"):
            aliases[f"quotamaj.{path.stem}"] = importlib.import_module(f"{PARENT}.{path.stem}")
    own = {name: sys.modules.pop(name) for name in loaded("quotamaj", "certificates")}
    path = sys.path[:]
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location("layers_parent", __file__)
        copy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(copy)
    finally:
        for name in loaded("quotamaj", "certificates"):
            del sys.modules[name]
        sys.modules.update(own)
        sys.path[:] = path
    return copy


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def export_tree(rev: str, dest: Path) -> Path:
    """Write the committed files of git revision `rev` under dest; return its sources."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def significant(seconds: float) -> float:
    """Seconds to 4 significant digits: a fixed number of decimals would
    leave a microsecond case one digit."""
    return float(f"{seconds:.4g}")


def bench_record(label: str, repeats: int, timings: dict[str, float]) -> dict:
    return {
        "label": label,
        "python": platform.python_version(),
        "assertions": "off" if sys.flags.optimize else "on",
        # without cached bytecode every start-up command compiles what it imports
        "dont_write_bytecode": sys.dont_write_bytecode,
        "statistic": "min",
        "repeats": repeats,
        "caches": "every quotamaj lru_cache cleared before each run",
        "timings_s": {name: significant(seconds) for name, seconds in timings.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--against", metavar="REV", help="also time every case on git revision REV")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees = {work: (all_cases, startup_listings, startup_loads)}
        if args.against is not None:
            # the parent tree writes the files of its cases into its own directory
            parent = load_parent(export_tree(args.against, work / "parent"))
            trees[work / "parent"] = (parent.all_cases, parent.startup_listings, parent.startup_loads)
        runs = measure([cases(path) for path, (cases, *_) in trees.items()], REPEATS)
        loads = [load(listings(path)) for path, (_, listings, load) in trees.items()]
    timings, *parent = ({name: min(pair[side]) for name, pair in runs.items()} for side in range(len(trees)))
    record = bench_record(args.label, REPEATS, timings)
    if parent:
        record["against"] = {
            "rev": args.against,
            "commit": git("rev-parse", args.against).decode().strip(),
            "parent_s": {name: significant(seconds) for name, seconds in parent[0].items()},
            "speedup": {name: round(parent[0][name] / timings[name], 3) for name in timings},
            "wins": {name: sum(c < p for c, p in zip(*pair)) for name, pair in runs.items()},
            "startup_loads": loads[1],
        }
    record["startup_loads"] = loads[0]
    record["tier1"] = tier1_run()
    record["source_lines"] = source_lines()
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

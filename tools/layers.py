"""Per-layer in-process timings at fixed sizes, written to BENCH_<label>.json.

    python3 tools/layers.py --label pr6
    python3 -O tools/layers.py --label pr6-noassert
    python3 tools/layers.py --label pr6 --against HEAD~1

Each timing is the minimum of REPEATS perf_counter runs of one call on
a fixed input; noise on a shared machine only adds time, so the best run
is the steadiest figure, and the file records it to 4 significant
digits, with the statistic and the repeats.  Every command starts with
empty caches, so before each run every `lru_cache` of the loaded
quotamaj modules is cleared, outside the timing, and the file says so
under `caches`.  The library calls are tabulation, the strategy-proofness check,
extraction and representation of two tables (n=200 and n=500),
canonicalization of a seeded 300-entry sequence at n=500 and of the
constant rule at n=3000, enumeration at n=10, 12 and 14, and the
tests' exhaustive strategy-proof search (tests/certificates.py) at n=5.
`values.count_profiles.n300` builds the 45,451 count profiles at n=300,
each a checked build through `_Value.__init__`.
The `parse_table.*` timings read a count table at n=140 and a full table
at n=8 from text and from JSON, files in the canonical order that are
read in whole-table passes, the count table at n=140 with its entries
shuffled, which is read entry by entry, and a text count table at n=1000 in both orders; the
`format_count_table.*` timings write that table at n=1000 as text and as
JSON, the `format_full_table.*` timings the full table at n=8 as text and
as JSON, and the
`format_family.*` timings write the family at n=12 as text and as JSON.
The `enum.*` timings run what the `enum` command runs at n=10, 11, 12
and 14 in both formats, with the output dropped instead of written.
The `startup.*` timings are the wall times of a fresh interpreter that
imports quotamaj, of one small command per CLI verb, and of the other
command shapes the CLI benchmark sends (`canon --subset`, `canon
--seq-file`, `verify` on a JSON table, `enum --format structured` and
`convert` from a rule), each run as a subprocess on the sources of the
imported quotamaj.  `startup.help` and `startup.usage_error` time the
same way the two command lines that argparse reads, `-h` and `verify`
without its required `--table`.

With `--against <rev>`, the script also exports the tree of git
revision <rev> into a temporary directory and times every case on both
trees in this one process, one run at a time, alternating which tree
runs first, after one untimed pair of runs of the first case, since the
first runs in a process read slow on either tree.  That tree's package
loads as `quotamaj_parent`, and this script loads again while
`quotamaj` names it, so the copy's cases, the
tests/certificates.py it imports and its `startup.*` subprocesses run
<rev>'s library, which needs the names that this script and that file
use; under `python -O` neither tree runs assertions.  The file then
records both minima, the speed-up (the parent's minimum over this
tree's), `wins` (how many of the REPEATS pairs of runs this tree ran
faster) and the parent tree's `startup_loads` under `against`.  Minima
alone cannot tell a change of a few percent from noise, so read a
speed-up as resolved only at REPEATS wins out of REPEATS, and a slowdown
only at none.  Six A/A runs, against a
tree with the same library (one is `BENCH_pr31.json`), read each
in-process case between x0.92 and x1.16, and 0-4 of 51 cases at none or
all wins, where chance gives about 3; the extremes were the first two
cases, which two A/A runs with the untimed pair read within x0.98-x1.00,
and every in-process case within x0.94-x1.05.  Runs minutes apart
differ far more, so compare trees only within one invocation.  The
file also records the Python version, whether assertions were on,
whether bytecode is written (`sys.dont_write_bytecode`: without cached
bytecode every start-up command compiles the modules it imports), the
wall time and counts of one run of the tier-1 suite, `startup_loads`:
the package modules that each `startup.*` command loads, their total
source lines and AST nodes, which is what it compiles without cached
bytecode (docstrings and comments add lines but next to no nodes), and
`source_lines`: the line counts of the package modules (in total and per
module) and of the test files.  Timings depend on the machine; compare
files written on the same one.  This script is not part of the test
suite, so timing noise can never fail it.
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
from quotamaj.fileformats import (
    STRUCTURED,
    TEXT,
    format_count_table,
    format_family,
    format_full_table,
    parse_table,
)
from quotamaj.oracle import expand_to_full

sys.path.append(str(ROOT / "tests"))
from certificates import exhaustive_sp_family  # noqa: E402  the tests' search, on the imported quotamaj
# the sources of the imported quotamaj, which the start-up subprocesses run
SRC = Path(quotamaj.__file__).resolve().parents[1]

TABLE_RULES = ((200, (100, 140, 60, 180, 20, 201)), (500, (250, 350, 150, 450, 50, 501)))
RANDOM_SEED = 2020
REPEATS = 5
RUNNER = "import sys; from quotamaj.cli import main; sys.exit(main(sys.argv[1:]))"
# runs the code of a start-up command, then prints the package modules it loaded to stderr
LISTER = (
    "import sys\n"
    "try:\n"
    "    exec(sys.argv.pop(1))\n"
    "finally:\n"
    "    print(*sorted(m for m in sys.modules if m.split('.')[0] == 'quotamaj'), file=sys.stderr)\n"
)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
#: the top-level name under which --against loads the tree of <rev>
PARENT = "quotamaj_parent"


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


def value_cases() -> list[tuple[str, object]]:
    """all_count_profiles at n=300, on an empty cache: 45,451 checked
    CountProfile builds, each through `_Value.__init__`."""
    return [("values.count_profiles.n300", partial(all_count_profiles, 300))]


def parse_cases() -> list[tuple[str, object]]:
    """parse_table on a count table at n=140 and a full table at n=8, each
    in both formats."""
    count = to_table(QuotaSeq(140, (70, 100, 40, 141)))
    full = expand_to_full(to_table(QuotaSeq(8, (4, 6, 2, 9))))
    files = {
        f"parse_table.{kind}.{fmt_name}": write(table, fmt)
        for kind, table, write in (
            ("count.n140", count, format_count_table),
            ("full.n8", full, format_full_table),
        )
        for fmt_name, fmt in (("text", TEXT), ("json", STRUCTURED))
    }
    return [(name, partial(parse_table, text)) for name, text in files.items()]


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


def shuffled_cases() -> list[tuple[str, object]]:
    """parse_table on the count table at n=140 of parse_cases with its
    entries shuffled, in both formats: a file out of the canonical order
    is read entry by entry."""
    count = to_table(QuotaSeq(140, (70, 100, 40, 141)))
    return [
        (f"parse_table.count.n140.shuffled.{fmt_name}",
         partial(parse_table, shuffled(format_count_table(count, fmt), RANDOM_SEED)))
        for fmt_name, fmt in (("text", TEXT), ("json", STRUCTURED))
    ]


def large_parse_cases(n: int = 1000) -> list[tuple[str, object]]:
    """parse_table on a text count table, in the canonical order and with
    its entries shuffled; at n=1000 it has 501,501 entries, where the
    reader's per-entry objects dominate."""
    text = format_count_table(to_table(QuotaSeq(n, (n // 2, 7 * n // 10, 3 * n // 10, n + 1))))
    return [
        (f"parse_table.count.n{n}.text", partial(parse_table, text)),
        (f"parse_table.count.n{n}.shuffled.text", partial(parse_table, shuffled(text, RANDOM_SEED))),
    ]


def writer_cases(n: int = 1000) -> list[tuple[str, object]]:
    """format_count_table on the count table of large_parse_cases and
    format_full_table on the full table at n=8 of parse_cases, each in both
    formats."""
    count = to_table(QuotaSeq(n, (n // 2, 7 * n // 10, 3 * n // 10, n + 1)))
    full = expand_to_full(to_table(QuotaSeq(8, (4, 6, 2, 9))))
    return [
        *((f"format_count_table.n{n}.{fmt_name}", partial(format_count_table, count, fmt))
          for fmt_name, fmt in (("text", TEXT), ("structured", STRUCTURED))),
        *((f"format_full_table.n8.{fmt_name}", partial(format_full_table, full, fmt))
          for fmt_name, fmt in (("text", TEXT), ("structured", STRUCTURED))),
    ]


def family_cases() -> list[tuple[str, object]]:
    """format_family on the family at n=12, in both formats."""
    family = enumerate_all(12)
    return [
        (f"format_family.n12.{fmt_name}", partial(format_family, family, 12, fmt))
        for fmt_name, fmt in (("text", TEXT), ("structured", STRUCTURED))
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


def startup_commands(table: str) -> dict[str, list[str]]:
    """Interpreter arguments of the bare import, of one small command per
    CLI verb, and of the other command shapes that the CLI benchmark sends;
    `table` names a text count-table file, which `worked_table` writes next
    to its JSON form and to a sequence file."""
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
    }
    return {
        "startup.import": ["-c", "import quotamaj"],
        **{f"startup.{verb}": ["-c", RUNNER, *argv] for verb, argv in verbs.items()},
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


def startup_cases(work: Path) -> list[tuple[str, object]]:
    """Each start-up command run as a subprocess in `work`, where its table is written."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [
        (name, partial(subprocess.run, [sys.executable, *args], cwd=work, env=env,
                       stdout=subprocess.DEVNULL, check=True))
        for name, args in startup_commands(worked_table(work)).items()
    ]


#: Command lines that argparse reads, with their exit statuses
FALLBACK = {"startup.help": (["-h"], 0), "startup.usage_error": (["verify"], 2)}


def run_expecting(status: int, argv: list[str], **kwargs) -> None:
    """Run `argv` as subprocess.run(argv, **kwargs) does; raise RuntimeError
    unless it exits with `status`."""
    returncode = subprocess.run(argv, **kwargs).returncode
    if returncode != status:
        raise RuntimeError(f"{argv} exited with {returncode}, not {status}")


def fallback_cases(work: Path) -> list[tuple[str, object]]:
    """Each command line of FALLBACK run as a subprocess in `work`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [
        (name, partial(run_expecting, status, [sys.executable, "-c", RUNNER, *argv], cwd=work, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        for name, (argv, status) in FALLBACK.items()
    ]


def ast_nodes(path: Path) -> int:
    """The nodes of the module's syntax tree: how much there is to compile."""
    return sum(1 for _ in ast.walk(ast.parse(path.read_bytes())))


def startup_loads(work: Path) -> dict[str, dict]:
    """The package modules each start-up command loads, from one run, and
    their source lines and AST nodes: what the command compiles when no
    bytecode is cached."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loads = {}
    for name, (flag, code, *argv) in startup_commands(worked_table(work)).items():
        proc = subprocess.run([sys.executable, flag, LISTER, code, *argv], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
        modules = proc.stderr.splitlines()[-1].split()
        files = [SRC / "quotamaj" / f"{m.partition('.')[2] or '__init__'}.py" for m in modules]
        loads[name] = {
            "modules": modules,
            "source_lines": sum(path.read_bytes().count(b"\n") for path in files),
            "ast_nodes": sum(map(ast_nodes, files)),
        }
    return loads


def all_cases(work: Path) -> list[tuple[str, object]]:
    """Every case this script times, in the order of its output."""
    return [
        *baseline_cases(), *value_cases(), *parse_cases(), *shuffled_cases(), *large_parse_cases(),
        *writer_cases(), *family_cases(), *enum_cases(),
        *startup_cases(work), *fallback_cases(work),
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


def measure(cases, repeats: int) -> dict[str, float]:
    """Least seconds of each case over `repeats` runs."""
    return {name: min(run_once(thunk) for _ in range(repeats)) for name, thunk in cases}


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


def against(rev: str, repeats: int) -> tuple[dict[str, float], dict[str, float], dict[str, int], dict[str, dict]]:
    """Least seconds of every case on this tree and on the tree of `rev`,
    from interleaved runs in this process that alternate which tree runs
    first, for each case the number of those pairs of runs that this tree
    won, and the `startup_loads` of the tree of `rev`."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent_src = export_tree(rev, tmp / "parent")
        # each tree writes the files of its cases into its own directory
        parent = load_parent(parent_src)
        sides = (dict(all_cases(tmp)), dict(parent.all_cases(tmp / "parent")))
        runs = {name: ([], []) for name in sides[0]}
        # one untimed pair: the first runs in a process read slow on either tree
        for side in (1, 0):
            run_once(sides[side][next(iter(runs))])
        for i, name in enumerate(runs):
            for r in range(repeats):
                for side in (0, 1) if (i + r) % 2 else (1, 0):
                    runs[name][side].append(run_once(sides[side][name]))
        parent_loads = parent.startup_loads(tmp / "parent")
    change_s, parent_s = ({name: min(pair[side]) for name, pair in runs.items()} for side in (0, 1))
    wins = {name: sum(c < p for c, p in zip(*pair)) for name, pair in runs.items()}
    return change_s, parent_s, wins, parent_loads


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
    if args.against is None:
        with tempfile.TemporaryDirectory() as work:
            timings = measure(all_cases(Path(work)), REPEATS)
    else:
        timings, parent, wins, parent_loads = against(args.against, REPEATS)
    record = bench_record(args.label, REPEATS, timings)
    if args.against is not None:
        record["against"] = {
            "rev": args.against,
            "commit": git("rev-parse", args.against).decode().strip(),
            "parent_s": {name: significant(seconds) for name, seconds in parent.items()},
            "speedup": {name: round(parent[name] / timings[name], 3) for name in timings},
            "wins": wins,
            "startup_loads": parent_loads,
        }
    with tempfile.TemporaryDirectory() as work:
        record["startup_loads"] = startup_loads(Path(work))
    record["tier1"] = tier1_run()
    record["source_lines"] = source_lines()
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

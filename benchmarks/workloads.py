"""Seeded inputs for the three workloads, each command with its check.

A workload is built in rounds.  A round has a fixed shape (which verbs,
which sizes, which file formats) and seeded contents, so every seed costs
about the same and the spread between seeds stays small.  The same
(workload, seed, round) always writes byte-identical files and argv.

Every command knows its answer from how its input was built, or from the
reference module; nothing here imports quotamaj.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("tables", "sequences", "family")


@dataclass(frozen=True)
class Result:
    code: int
    stdout: str
    stderr: str


@dataclass
class Command:
    """One CLI call.  `check` returns None when the answer is right, else why not."""

    argv: list[str]
    check: Callable[[Result, Path], str | None]
    kind: str
    n: int
    length: int = 0  # quota entries in the input sequence
    input_bytes: int = 0  # size of the input file it reads
    traced: bool = False


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _expect(code: int, result: Result) -> str | None:
    if result.code != code:
        return f"exit {result.code}, expected {code}; stderr: {result.stderr.strip()[:200]}"
    return None


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _stratified_subset(rng: random.Random, n: int, size: int) -> list[int]:
    """One seeded value from each of `size` equal bins of 1..n.

    The rule's shape, and so the cost of canonicalizing or representing it,
    stays the same from seed to seed; a uniform sample would move the first
    entry of the proper sequence, which decides most profiles, and with it
    the cost of the command.
    """
    edges = [round(i * n / size) for i in range(size + 1)]
    return [rng.randint(lo + 1, hi) for lo, hi in zip(edges, edges[1:])]


# ------------------------------------------------------------------ tables


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8", newline="\n")
    return len(text.encode())


def _write_count_table(path: Path, n: int, table: str, fmt: str) -> int:
    profiles = ref.count_profiles(n)
    if fmt == "json":
        entries = [{"a": na, "b": nb, "out": o} for (na, nb), o in zip(profiles, table)]
        text = json.dumps({"n": n, "entries": entries}, indent=1) + "\n"
    else:
        text = f"n={n}\n" + "".join(f"{na} {nb} {o}\n" for (na, nb), o in zip(profiles, table))
    return _write(path, text)


def _write_full_table(path: Path, n: int, full: str, fmt: str) -> int:
    profiles = ref.full_profiles(n)
    if fmt == "json":
        entries = [{"profile": p, "out": o} for p, o in zip(profiles, full)]
        text = json.dumps({"n": n, "entries": entries}, indent=1) + "\n"
    else:
        text = f"n={n}\n" + "".join(f"{p} {o}\n" for p, o in zip(profiles, full))
    return _write(path, text)


def _check_count_verdict(table: str, n: int, lines: list[str], first: str) -> str | None:
    if len(lines) != 3 or lines[0] != first:
        return f"unexpected verify output {lines!r}"
    if ref.find_count_manipulation(table, n) is None:
        if lines[1] != "strategy-proof: yes":
            return f"strategy-proof table reported as {lines[1]!r}"
    elif not lines[1].startswith("strategy-proof: no (") or not ref.replays_count_witness(
        table, n, lines[1]
    ):
        return f"counterexample does not replay: {lines[1]!r}"
    if lines[2] != f"onto: {'yes' if ref.is_onto(table) else 'no'}":
        return f"wrong ontoness line {lines[2]!r}"
    return None


def verify_count(name: str, n: int, table: str, size: int) -> Command:
    manipulable = ref.find_count_manipulation(table, n) is not None

    def check(result: Result, _work: Path) -> str | None:
        return _expect(3 if manipulable else 0, result) or _check_count_verdict(
            table, n, result.stdout.splitlines(), "anonymous: yes (count table)"
        )

    return Command(["verify", "--table", name], check, "verify-count", n, input_bytes=size)


def verify_full(name: str, n: int, full: str, size: int) -> Command:
    anonymous = ref.is_anonymous(full, n)
    counts = ref.reduce_to_counts(full, n) if anonymous else None
    manipulable = (
        ref.find_count_manipulation(counts, n) if anonymous else ref.find_full_manipulation(full, n)
    ) is not None

    def check(result: Result, _work: Path) -> str | None:
        lines = result.stdout.splitlines()
        if anonymous:
            return _expect(3 if manipulable else 0, result) or _check_count_verdict(
                counts, n, lines, "anonymous: yes"
            )
        failed = _expect(3, result)
        if failed:
            return failed
        if len(lines) != 2 or lines[0] != "anonymous: no":
            return f"unexpected verify output {lines!r}"
        if not manipulable:
            return None if lines[1] == "strategy-proof: yes" else f"wrong verdict {lines[1]!r}"
        if not ref.replays_full_witness(full, n, lines[1]):
            return f"counterexample does not replay: {lines[1]!r}"
        return None

    return Command(["verify", "--table", name], check, "verify-full", n, input_bytes=size)


LEVELS = re.compile(r"x=([ab]); \(l,k\)=(none|\(\d+,\d+\)(?:,\(\d+,\d+\))*)$")


def _check_representation(table: str, n: int, lines: list[str]) -> str | None:
    if len(lines) != 2:
        return f"unexpected represent output {lines!r}"
    try:
        seq = [int(tok) for tok in lines[0].split(",")]
    except ValueError:
        return f"bad sequence line {lines[0]!r}"
    if not ref.is_proper(seq, n):
        return f"{lines[0]} is not proper"
    if ref.quota_table(seq, n) != table:
        return f"{lines[0]} does not reproduce the table"
    levels = LEVELS.match(lines[1])
    if levels is None:
        return f"bad levels line {lines[1]!r}"
    default = levels[1]
    pairs = [] if levels[2] == "none" else [
        tuple(int(v) for v in pair.split(",")) for pair in re.findall(r"\((\d+,\d+)\)", levels[2])
    ]
    if default != table[0] or ref.levels_table(default, pairs, n) != table:
        return f"levels {lines[1]!r} do not replay to the table"
    return None


def represent_table(name: str, n: int, table: str, size: int, full: str | None = None) -> Command:
    """`represent` on a count table, or on the full table `full` when given."""
    anonymous = full is None or ref.is_anonymous(full, n)
    counts = ref.reduce_to_counts(full, n) if full is not None and anonymous else table
    manipulable = anonymous and ref.find_count_manipulation(counts, n) is not None

    def check(result: Result, _work: Path) -> str | None:
        if not anonymous:
            return _expect(3, result) or (
                None if "not anonymous" in result.stderr else f"stderr {result.stderr!r}"
            )
        if manipulable:
            return _expect(3, result) or (
                None
                if ref.replays_count_witness(counts, n, result.stderr)
                else f"counterexample does not replay: {result.stderr.strip()!r}"
            )
        return _expect(0, result) or _check_representation(counts, n, result.stdout.splitlines())

    return Command(["represent", "--table", name], check, "represent", n, input_bytes=size)


def random_lp_rule(rng: random.Random, n: int, default: str) -> tuple[int, list[int]]:
    r = rng.randint(n // 2, n // 2 + n // 10)
    base = 1 if default == "a" else n - r + 1
    thresholds = [base]
    for i in range(1, r):
        step = rng.randint(0, 1) if thresholds[-1] < base + i else 0
        thresholds.append(thresholds[-1] + step)
    return r, thresholds


def convert_lp(n: int, default: str, r: int, thresholds: list[int]) -> Command:
    expected = ref.lp_table(n, default, r, thresholds)

    def check(result: Result, _work: Path) -> str | None:
        failed = _expect(0, result)
        if failed:
            return failed
        try:
            seq = [int(tok) for tok in result.stdout.strip().split(",")]
        except ValueError:
            return f"bad sequence {result.stdout!r}"
        if not ref.is_proper(seq, n) or ref.quota_table(seq, n) != expected:
            return f"{result.stdout.strip()} is not the proper form of the rule"
        return None

    argv = ["convert", "--n", str(n), "--default", default, "--r", str(r), "--thresholds", _csv(thresholds)]
    return Command(argv, check, "convert-lp", n)


def sp_table(rng: random.Random, n: int, default: str, size: int) -> str:
    return ref.quota_table(ref.subset_to_proper(_stratified_subset(rng, n, size), default, n), n)


def flip_to_manipulable(rng: random.Random, n: int, table: str) -> str:
    """The table with one cell flipped, the first (in seeded order) whose
    flip the reference finds manipulable."""
    cells = list(range(len(table)))
    rng.shuffle(cells)
    for i in cells:
        flipped = table[:i] + ("b" if table[i] == "a" else "a") + table[i + 1 :]
        if ref.find_count_manipulation(flipped, n) is not None:
            return flipped
    raise ValueError("no single flip makes the table manipulable")


def unanonymize(rng: random.Random, n: int, full: str) -> str:
    """Flip one full profile whose count class has other members, which
    only the constant profiles (all a, all b, all i) lack."""
    profiles = ref.full_profiles(n)
    while True:
        i = rng.randrange(len(full))
        if len(set(profiles[i])) > 1:
            return full[:i] + ("b" if full[i] == "a" else "a") + full[i + 1 :]


# Round shape for `tables`: `verify` and `represent` on strategy-proof count
# tables, REPRESENT_COUNTS of them at each size (text and JSON, both
# defaults); the same on a manipulable one-cell flip of a count table at
# each FLIP_SIZES entry and on full per-voter tables; and `convert` from
# indifference-quota rules.  The heavy `represent` calls are the slowest
# commands, so the tail (the 11th slowest of 53) is the middle one of the
# eleven at n = 80, not the edge between two sizes.
REPRESENT_COUNTS = ((80, 11), (100, 3), (110, 2))  # (n, tables)
FLIP_SIZES = (40, 60, 80, 100, 120, 140)
FULL_TABLES = ((6, True), (7, False), (8, True))  # (n, anonymous)
LP_SIZES = (40, 60, 80)


def tables_round(rng: random.Random, work: Path, tag: str) -> list[Command]:
    cmds: list[Command] = []
    files = iter(range(1000))

    def new_file(ext: str) -> str:
        return f"{tag}-{next(files):02d}.{ext}"

    for n, count in REPRESENT_COUNTS:
        for j in range(count):
            default, fmt = "ba"[j % 2], ("text", "json")[j // 2 % 2]
            table = sp_table(rng, n, default, n // 3)
            name = new_file("tbl" if fmt == "text" else "json")
            size = _write_count_table(work / name, n, table, fmt)
            cmds += [verify_count(name, n, table, size), represent_table(name, n, table, size)]
            cmds[-1].traced = cmds[-2].traced = j == 0
    for j, n in enumerate(FLIP_SIZES):
        fmt = ("text", "json")[j % 2]
        table = flip_to_manipulable(rng, n, sp_table(rng, n, "ab"[j % 2], n // 3))
        name = new_file("tbl" if fmt == "text" else "json")
        size = _write_count_table(work / name, n, table, fmt)
        cmds += [verify_count(name, n, table, size), represent_table(name, n, table, size)]
        cmds[-1].traced = cmds[-2].traced = j < 2
    for j, (n, anonymous) in enumerate(FULL_TABLES):
        fmt = ("text", "json")[j % 2]
        counts = sp_table(rng, n, "ba"[j % 2], n // 2)
        full = ref.expand_to_full(counts, n)
        if not anonymous:
            full = unanonymize(rng, n, full)
        name = new_file("tbl" if fmt == "text" else "json")
        size = _write_full_table(work / name, n, full, fmt)
        cmds += [verify_full(name, n, full, size), represent_table(name, n, counts, size, full)]
        cmds[-1].traced = cmds[-2].traced = True
    for j, n in enumerate(LP_SIZES):
        default = "ab"[j % 2]
        cmds.append(convert_lp(n, default, *random_lp_rule(rng, n, default)))
        cmds[-1].traced = True
    return cmds


# --------------------------------------------------------------- sequences


def pad_sequence(rng: random.Random, proper: list[int]) -> list[int]:
    """A longer raw sequence with the same rule as `proper`.

    Before each entry after the first, insert one value inside the running
    range (it can never decide a profile) and, when the entry escapes the
    range with room to spare, one less extreme step on the same side (the
    entry decides everything it would).
    """
    raw = [proper[0]]
    lo = hi = proper[0]
    for q in proper[1:]:
        raw.append(rng.randint(lo, hi))
        if q > hi + 1:
            hi = rng.randint(hi + 1, q - 1)
            raw.append(hi)
        elif q < lo - 1:
            lo = rng.randint(q + 1, lo - 1)
            raw.append(lo)
        raw.append(q)
        lo, hi = min(lo, q), max(hi, q)
    return raw


def _prints(expected: str) -> Callable[[Result, Path], str | None]:
    """A check that wants exit 0 and exactly `expected` on standard output."""

    def check(result: Result, _work: Path) -> str | None:
        got = result.stdout.strip()
        return _expect(0, result) or (None if got == expected else f"got {got!r}, expected {expected}")

    return check


def canon_raw(n: int, raw: list[int], proper: list[int], seq_file: str | None, work: Path) -> Command:
    size = 0
    if seq_file is None:
        argv = ["canon", "--n", str(n), "--quotas", _csv(raw)]
    else:
        size = _write(work / seq_file, f"n={n}\n{_csv(raw)}\n")
        argv = ["canon", "--seq-file", seq_file]
    return Command(argv, _prints(_csv(proper)), "canon", n, len(raw), size)


def canon_subset(n: int, subset: list[int], default: str) -> Command:
    expected = _csv(ref.subset_to_proper(subset, default, n))
    argv = ["canon", "--n", str(n), "--subset", _csv(subset) or "-", "--default", default]
    return Command(argv, _prints(expected), "canon-subset", n)


def eval_profile(n: int, raw: list[int], na: int, nb: int) -> Command:
    lam, outcome = ref.first_match(raw, n, na, nb)
    argv = ["eval", "--n", str(n), "--quotas", _csv(raw), "--na", str(na), "--nb", str(nb)]
    return Command(argv, _prints(f"{outcome} (lambda={lam})"), "eval", n, len(raw))


RULE_LINE = re.compile(r"default=([ab]) r=(\d+) ([xy])=(\d+(?:,\d+)*)$")


def convert_sequence(n: int, proper: list[int]) -> Command:
    table = ref.quota_table(proper, n)

    def check(result: Result, _work: Path) -> str | None:
        failed = _expect(0, result)
        if failed:
            return failed
        line = RULE_LINE.match(result.stdout.strip())
        if line is None:
            return f"bad rule line {result.stdout.strip()!r}"
        default, r, name = line[1], int(line[2]), line[3]
        thresholds = [int(v) for v in line[4].split(",")]
        if name != ("x" if default == "a" else "y") or not ref.lp_is_valid(n, default, r, thresholds):
            return f"{result.stdout.strip()} is not a valid rule"
        if ref.lp_table(n, default, r, thresholds) != table:
            return f"{result.stdout.strip()} does not reproduce the sequence's table"
        return None

    argv = ["convert", "--n", str(n), "--quotas", _csv(proper)]
    return Command(argv, check, "convert-seq", n, len(proper))


# Round shape for `sequences`: CANON_COUNTS padded proper sequences through
# `canon` at each size (by --quotas or by --seq-file, both defaults), and
# at each size QUICK_REPEATS each of `canon --subset`, `eval` on a padded
# sequence, and `convert --quotas`.  The subset holds a fixed share of
# 1..n.  The `canon` calls are the slowest commands, so the tail (the 11th
# slowest of 54) is the middle one of the eleven at n = 120.  The 36 quick
# commands cost about the same, mostly interpreter start-up; there are
# enough of them that the median falls well inside their group, not at its
# edge next to the `canon` calls.
CANON_COUNTS = ((80, 2), (120, 11), (160, 3), (200, 2))  # (n, sequences)
QUICK_REPEATS = 3
SEQUENCE_DENSITY = 0.12


def sequences_round(rng: random.Random, work: Path, tag: str) -> list[Command]:
    cmds: list[Command] = []
    for n, count in CANON_COUNTS:
        size = max(2, round(n * SEQUENCE_DENSITY))
        padded = []
        for j in range(count):
            proper = ref.subset_to_proper(_stratified_subset(rng, n, size), "ba"[j % 2], n)
            raw = pad_sequence(rng, proper)
            padded.append(raw)
            seq_file = f"{tag}-{n}-{j}.seq" if j % 3 == 1 else None
            cmds.append(canon_raw(n, raw, proper, seq_file, work))
            cmds[-1].traced = j == 0
        for j in range(QUICK_REPEATS):
            default = "ba"[j % 2]
            cmds.append(canon_subset(n, _stratified_subset(rng, n, size), default))
            na = rng.randint(0, n)
            cmds.append(eval_profile(n, padded[j % count], na, rng.randint(0, n - na)))
            proper = ref.subset_to_proper(_stratified_subset(rng, n, size), default, n)
            cmds.append(convert_sequence(n, proper))
            for cmd in cmds[-3:]:
                cmd.traced = j == 0
    return cmds


# ------------------------------------------------------------------ family


def _parse_family(text: str, fmt: str):
    if fmt == "json":
        data = json.loads(text)
        rows = tuple(
            (e["default"], tuple(e["subset"]), tuple(e["quotas"]), e["table"]) for e in data["family"]
        )
        return data["n"], data["count"], rows
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("n=") or not lines[1].startswith("count="):
        raise ValueError("missing n= or count= header")
    rows = []
    for line in lines[2:]:
        default, subset, seq, table = line.split(" ")
        members = () if subset == "-" else tuple(int(v) for v in subset.split(","))
        rows.append((default, members, tuple(int(v) for v in seq.split(",")), table))
    return int(lines[0][2:]), int(lines[1][6:]), tuple(rows)


def enum_family(n: int, fmt: str, out: str) -> Command:
    def check(result: Result, work: Path) -> str | None:
        failed = _expect(0, result)
        if failed:
            return failed
        try:
            got_n, count, rows = _parse_family((work / out).read_text(encoding="utf-8"), fmt)
        except (OSError, ValueError, KeyError, TypeError) as err:
            return f"unreadable family file: {err}"
        expected = ref.family(n)
        if got_n != n or count != len(expected) or rows != expected:
            return f"family for n={n} differs from the reference"
        return None

    argv = ["enum", "--n", str(n), "--out", out]
    if fmt == "json":
        argv += ["--format", "structured"]
    return Command(argv, check, "enum", n)


# Round shape for `family`.  One pass over n = 8..14, formats alternating,
# is the traced slice; the rest repeat n = 8..12 so that a round holds 6,
# 6, 8, 8, 2, 1, 1 commands for n = 8..14.  These weights model no user
# traffic: they are chosen so that the median of 32 sits in the middle of
# the n = 10 group and the tail (the 11th slowest) inside the n = 11 group,
# rather than on the edge between two sizes, and so that a round fits the
# run's time with n = 13 and n = 14 once each.
FAMILY_FORMATS = ("text", "json")
FAMILY_TRACED = tuple((n, FAMILY_FORMATS[n % 2]) for n in range(8, 15))
FAMILY_EXTRA = tuple(
    (n, FAMILY_FORMATS[(n + j) % 2])
    for n, repeats in ((8, 5), (9, 5), (10, 7), (11, 7), (12, 1))
    for j in range(1, repeats + 1)
)


def family_round(rng: random.Random, work: Path, tag: str) -> list[Command]:
    cmds = []
    for j, (n, fmt) in enumerate(FAMILY_TRACED + FAMILY_EXTRA):
        cmds.append(enum_family(n, fmt, f"{tag}-{j:02d}.{'json' if fmt == 'json' else 'txt'}"))
        cmds[-1].traced = j < len(FAMILY_TRACED)
    rng.shuffle(cmds)
    return cmds


_ROUNDS = {"tables": tables_round, "sequences": sequences_round, "family": family_round}


def build_round(workload: str, seed: int, round_index: int, work: Path) -> list[Command]:
    """Write the inputs of one round into `work` and return its commands."""
    return _ROUNDS[workload](_rng(workload, seed, round_index), work, f"r{round_index}")

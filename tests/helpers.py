"""What several test modules share, each defined once here.

* tables and rules: `all_valid_r_tuples`, `every_count_table`,
  `majority3`, `manipulable3`, `worked_table` and the full-table rule
  `dictator`;
* the raw-sequence inputs: the Hypothesis strategies `quota_seqs` and
  `padded_sequences`, and `short_sequences`, which lists every short one;
* references that share no code with the library: `reference_truncate`,
  the rewrite-to-fixpoint `reference_canonicalize` with its leftmost-first
  `delete_dominated_leftmost`, `reference_row_thresholds`,
  `reference_to_table`, `reference_up_closure` and `reference_family_file`;
* `run`, which runs one command in process.

Not a test module: pytest does not collect it, and the tests import it by
name.  `tests/conftest.py` adds the fixtures that run `tools/layers.py`'s
command lines.
"""

import itertools
import json

from hypothesis import strategies as st

from quotamaj import Alternative, CountTable, Preference, QuotaSeq, count_table_size, proper_to_subset
from quotamaj.cli import main
from quotamaj.fileformats import STRUCTURED

A, B = Alternative.A, Alternative.B


def seq(n, *quotas):
    return QuotaSeq(n, quotas)


def all_valid_r_tuples(n):
    """Every sequence of distinct interior quotas closed by n+1 or by 0."""
    for size in range(n + 1):
        for interior in itertools.permutations(range(1, n + 1), size):
            yield QuotaSeq(n, interior + (n + 1,))
            yield QuotaSeq(n, interior + (0,))


def every_count_table(n):
    """Every count table for n, 2**count_table_size(n) of them, each with
    the outcomes it was built from."""
    for outcomes in itertools.product((A, B), repeat=count_table_size(n)):
        yield outcomes, CountTable(n, outcomes)


def majority3():
    return CountTable.from_function(3, lambda p: A if p.na > p.nb else B)


def manipulable3():
    """Majority at n=3 with two outcomes flipped: (1,1) wins for a, (2,1) for b."""
    def rule(p):
        if (p.na, p.nb) == (1, 1):
            return A
        if (p.na, p.nb) == (2, 1):
            return B
        return A if p.na > p.nb else B

    return CountTable.from_function(3, rule)


def worked_table():
    """The worked rule's table, (5,2,12) at n=11, stated verbally, independent of any sequence."""
    return CountTable.from_function(11, lambda p: A if (p.na >= 5 or (2 <= p.na < 5 and p.nb < 7)) else B)


def dictator(profile):
    """Voter 0 decides; their indifference defaults to b."""
    return A if profile[0] is Preference.A else B


@st.composite
def quota_seqs(draw, max_n=8):
    """A raw sequence: up to 7 entries anywhere in [0, n+1], then a terminal."""
    n = draw(st.integers(1, max_n))
    body = draw(st.lists(st.integers(0, n + 1), max_size=7))
    terminal = draw(st.sampled_from([0, n + 1]))
    return QuotaSeq(n, tuple(body) + (terminal,))


@st.composite
def padded_sequences(draw, max_n=12):
    """A raw sequence with repeats in the body and 0-6 entries after the terminal."""
    n = draw(st.integers(1, max_n))
    body = draw(st.lists(st.integers(1, n), max_size=12))
    terminal = draw(st.sampled_from([0, n + 1]))
    padding = draw(st.lists(st.integers(0, n + 1), max_size=6))
    return tuple(body) + (terminal,) + tuple(padding), n


def short_sequences(n):
    """Every raw sequence of up to 4 entries over {0..n+1}: repeats, entries
    after the terminal and sequences without one included."""
    for size in range(5):
        yield from itertools.product(range(n + 2), repeat=size)


# The references below share no code with the library: their profile
# lists are built here, not read from a table, and each walk is its own.


def reference_truncate(raw, n):
    """The prefix of `raw` up to its first 0 or n+1, with the refusals of `truncate`."""
    if not raw:
        raise ValueError("quota sequence must be nonempty")
    for q in raw:
        if not 0 <= q <= n + 1:
            raise ValueError(f"quota {q} outside [0, {n + 1}] for society size {n}")
    for i, q in enumerate(raw):
        if q in (0, n + 1):
            return QuotaSeq(n, tuple(raw[: i + 1]))
    raise ValueError(
        "quota sequence needs an element in {0, n+1}; "
        "otherwise some profiles are never decided"
    )


def delete_dominated_leftmost(s):
    """Leftmost-first removal of entries inside the earlier range, restarted
    after every deletion, on a sequence truncated at its first terminal."""
    q = list(s.quotas)
    if any(v in (0, s.n + 1) for v in q[:-1]):
        raise ValueError("sequence must be truncated at its first element of {0, n+1}")
    changed = True
    while changed:
        changed = False
        lo = hi = q[0]
        for g in range(1, len(q) - 1):
            v = q[g]
            if lo <= v <= hi:
                del q[g]
                changed = True
                break
            lo = min(lo, v)
            hi = max(hi, v)
    return QuotaSeq(s.n, tuple(q))


def _drop_first_same_side(s):
    # the earlier of the first two consecutive same-side escapes, removed
    q = s.quotas
    lo = hi = q[0]
    prev_side = 0
    for g in range(1, len(q)):
        v = q[g]
        if v > hi:
            side, hi = 1, v
        elif v < lo:
            side, lo = -1, v
        else:
            raise AssertionError("entry inside earlier range survived dominated-entry removal")
        if side == prev_side:
            return QuotaSeq(s.n, q[: g - 1] + q[g:])
        prev_side = side
    return None


def reference_canonicalize(raw, n):
    """The rewrite-to-fixpoint algorithm: dominated-entry removal
    alternated with same-side collapses until neither applies."""
    s = reference_truncate(raw, n)
    if s.quotas[0] in (0, n + 1):
        return QuotaSeq(n, (s.quotas[0],))
    while True:
        s = delete_dominated_leftmost(s)
        collapsed = _drop_first_same_side(s)
        if collapsed is None:
            return s
        s = collapsed


def reference_row_thresholds(n, outcome):
    """Per indifferent count ell, the least a-support whose profile a wins,
    n - ell + 1 when it wins none; `outcome(na, nb)` gives each cell."""
    thresholds = []
    for ell in range(n + 1):
        size = n - ell
        row = [outcome(j, size - j) for j in range(size + 1)]
        t = next((j for j, o in enumerate(row) if o is A), size + 1)
        if B in row[t:]:
            raise AssertionError(f"row with {ell} indifferent voters is not monotone above a-support {t}")
        thresholds.append(t)
    return tuple(thresholds)


def count_profiles(n):
    """Every count profile as an (na, nb) pair, in the canonical order."""
    return [(na, nb) for na in range(n + 1) for nb in range(n + 1 - na)]


def first_deciding_index(quotas, n, na, nb):
    """The index of the first quota that one side's support meets."""
    for i, k in enumerate(quotas):
        if na >= k or nb >= n + 1 - k:
            return i


def reference_to_table(seq):
    """The outcomes of a sequence in the canonical profile order: a wins
    where its support meets the first deciding quota."""
    n, quotas = seq.n, seq.quotas
    return tuple(A if na >= quotas[first_deciding_index(quotas, n, na, nb)] else B for na, nb in count_profiles(n))


def reference_up_closure(n, corners):
    """The outcomes in the canonical order of the table that a wins exactly
    at or above a corner (ca, cb): where na >= ca and nb <= cb."""
    # row na: a wins up to the greatest cb of the corners with ca <= na
    reach = [max((cb for ca, cb in corners if ca <= na), default=-1) for na in range(n + 1)]
    return tuple(A if nb <= reach[na] else B for na, nb in count_profiles(n))


def reference_family_file(sequences, n, fmt):
    """The family file of these sequences, as json.dumps or an f-string lays it out."""
    entries = [
        (default.value, sorted(subset), seq, "".join(o.value for o in reference_to_table(seq)))
        for seq in sequences
        for subset, default in [proper_to_subset(seq)]
    ]
    if fmt == STRUCTURED:
        family = [
            {"default": default, "subset": members, "quotas": list(seq.quotas), "table": cells}
            for default, members, seq, cells in entries
        ]
        return json.dumps({"n": n, "count": len(entries), "family": family}, indent=2)
    lines = [
        f"{default} {','.join(map(str, members)) or '-'} {seq} {cells}\n" for default, members, seq, cells in entries
    ]
    return f"n={n}\ncount={len(entries)}\n" + "".join(lines)


def run(capsys, *argv):
    """Exit code, stdout and stderr of one in-process command."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quotamaj import (
    Alternative,
    QuotaSeq,
    SearchBudgetExceeded,
    canonicalize,
    delete_dominated,
    is_proper,
    length,
    subset_to_proper,
    to_table,
    truncate,
)
from quotamaj.engine import _staircase

from certificates import is_minimal
from helpers import all_valid_r_tuples, seq


@st.composite
def raw_sequences(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    body = draw(st.lists(st.integers(0, n + 1), max_size=7))
    terminal = draw(st.sampled_from([0, n + 1]))
    return tuple(body) + (terminal,), n


def test_truncate_examples():
    assert truncate((5, 2, 12, 7, 3), 11).quotas == (5, 2, 12)
    assert truncate((0, 5), 11).quotas == (0,)
    assert truncate((5, 2, 9, 12), 11).quotas == (5, 2, 9, 12)


def test_truncate_rejects_undecided_sequences():
    with pytest.raises(ValueError):
        truncate((5, 2, 7), 11)
    with pytest.raises(ValueError):
        truncate((5, 13), 11)
    with pytest.raises(ValueError):
        truncate((), 11)


def test_delete_dominated_examples():
    assert delete_dominated(seq(11, 5, 5, 5, 4, 5, 3, 5, 2, 12)).quotas == (5, 4, 3, 2, 12)
    assert delete_dominated(seq(11, 5, 2, 9, 12)).quotas == (5, 2, 9, 12)
    assert delete_dominated(seq(11, 4, 4, 12)).quotas == (4, 12)


def test_delete_dominated_requires_truncated_input():
    with pytest.raises(ValueError):
        delete_dominated(seq(11, 5, 0, 12))


def test_delete_dominated_preserves_table():
    for s in (
        seq(11, 5, 5, 5, 4, 5, 3, 5, 2, 12),
        seq(11, 5, 2, 9, 12),
        seq(5, 3, 2, 4, 2, 3, 6),
    ):
        assert to_table(delete_dominated(s)) == to_table(s)


def test_canonicalize_worked_examples():
    assert canonicalize((5, 2, 7, 12), 11).quotas == (5, 2, 12)
    assert canonicalize((5, 2, 9, 12), 11).quotas == (5, 2, 12)
    assert canonicalize((5, 5, 5, 4, 5, 3, 5, 2, 12), 11).quotas == (5, 2, 12)
    assert canonicalize((12,), 11).quotas == (12,)


def test_canonicalize_constants():
    assert canonicalize((0, 5), 11).quotas == (0,)
    assert canonicalize((12, 3, 0), 11).quotas == (12,)


def test_canonicalize_same_side_runs():
    # consecutive same-side entries collapse to the most extreme one
    assert canonicalize((5, 2, 1, 12), 11).quotas == (5, 1, 12)
    assert canonicalize((5, 6, 7, 12), 11).quotas == (5, 12)
    assert canonicalize((5, 7, 2, 6, 1, 12), 11).quotas == (5, 7, 1, 12)


@given(raw_sequences())
def test_canonicalize_properties(raw_n):
    raw, n = raw_n
    proper = canonicalize(raw, n)
    assert is_proper(proper)
    assert to_table(proper) == to_table(truncate(raw, n))
    again = canonicalize(proper.quotas, n)
    assert again == proper


def test_canonicalize_keeps_the_table_at_large_n():
    # seeded, far beyond the n that the per-profile references reach
    rng = random.Random(5000)
    n = 5000
    body = [rng.randint(1, n) for _ in range(300)]
    raw = body + [rng.choice((0, n + 1))] + body[:20]
    proper = canonicalize(raw, n)
    assert is_proper(proper) and len(proper.quotas) > 2
    assert to_table(proper) == to_table(truncate(raw, n))


def pad(rng, proper):
    """A longer raw sequence with the rule of `proper`: before each later
    entry a value inside the running range, and, where the entry escapes
    with room to spare, a less extreme step on the same side."""
    raw = [proper[0]]
    lo = hi = proper[0]
    for q in proper[1:]:
        raw.append(rng.randint(lo, hi))
        if q > hi + 1:
            raw.append(rng.randint(hi + 1, q - 1))
        elif q < lo - 1:
            raw.append(rng.randint(q + 1, lo - 1))
        raw.append(q)
        lo, hi = min(lo, q), max(hi, q)
    return raw


def test_canonicalize_keeps_the_staircase_of_padded_proper_sequences():
    # seeded, shaped like the canon benchmark's inputs but larger: n from 50
    # to 3000, up to 301 proper entries, padded, with entries after the terminal
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(50, 3000)
        subset = rng.sample(range(1, n + 1), rng.randint(0, min(n, 300)))
        proper = subset_to_proper(subset, rng.choice(list(Alternative)), n)
        raw = pad(rng, proper.quotas) + [rng.randint(0, n + 1) for _ in range(rng.randint(0, 3))]
        out = canonicalize(raw, n)
        assert out == proper and is_proper(out)
        assert _staircase(out) == _staircase(truncate(raw, n))


def test_canonicalize_exhaustive_small():
    # every valid sequence of distinct quotas at n <= 4, plus its table
    for n in range(1, 5):
        for s in all_valid_r_tuples(n):
            proper = canonicalize(s.quotas, n)
            assert is_proper(proper)
            assert to_table(proper) == to_table(s)
            if not is_proper(s):
                assert length(proper) < length(s)


def test_is_minimal_examples():
    assert is_minimal(seq(11, 5, 2, 12))
    assert not is_minimal(seq(11, 5, 2, 7, 12))
    assert is_minimal(seq(3, 4))


def test_is_minimal_rejects_bad_input():
    with pytest.raises(ValueError):
        is_minimal(seq(11, 5, 5, 12))


def test_is_minimal_budget():
    long_seq = QuotaSeq(
        11, (6, 5, 7, 4, 8, 3, 9, 2, 10, 1, 11, 12)
    )
    with pytest.raises(SearchBudgetExceeded):
        is_minimal(long_seq)


def _delete_dominated_leftmost(s):
    # leftmost-first removal, restarted after every deletion
    q = list(s.quotas)
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
    s = truncate(raw, n)
    if s.quotas[0] in (0, n + 1):
        return QuotaSeq(n, (s.quotas[0],))
    while True:
        s = _delete_dominated_leftmost(s)
        collapsed = _drop_first_same_side(s)
        if collapsed is None:
            return s
        s = collapsed


def test_canonicalize_matches_fixpoint_on_all_distinct_sequences():
    for n in range(1, 7):
        for s in all_valid_r_tuples(n):
            assert canonicalize(s.quotas, n) == reference_canonicalize(s.quotas, n)


@st.composite
def padded_sequences(draw, max_n=12):
    # repeats in the body, anything after the terminal
    n = draw(st.integers(1, max_n))
    body = draw(st.lists(st.integers(1, n), max_size=12))
    terminal = draw(st.sampled_from([0, n + 1]))
    padding = draw(st.lists(st.integers(0, n + 1), max_size=4))
    return tuple(body) + (terminal,) + tuple(padding), n


@given(padded_sequences())
def test_canonicalize_matches_fixpoint_with_repeats_and_padding(raw_n):
    raw, n = raw_n
    assert canonicalize(raw, n) == reference_canonicalize(raw, n)

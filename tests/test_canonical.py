import random

from hypothesis import given

from quotamaj import (
    Alternative,
    canonicalize,
    delete_dominated,
    is_proper,
    subset_to_proper,
    to_table,
    truncate,
)
from quotamaj.engine import _staircase

from certificates import is_minimal
from helpers import all_valid_r_tuples, padded_sequences, quota_seqs, reference_canonicalize, seq


def test_truncate_examples():
    assert truncate((5, 2, 12, 7, 3), 11).quotas == (5, 2, 12)
    assert truncate((0, 5), 11).quotas == (0,)
    assert truncate((5, 2, 9, 12), 11).quotas == (5, 2, 9, 12)


def test_delete_dominated_examples():
    assert delete_dominated(seq(11, 5, 5, 5, 4, 5, 3, 5, 2, 12)).quotas == (5, 4, 3, 2, 12)
    assert delete_dominated(seq(11, 5, 2, 9, 12)).quotas == (5, 2, 9, 12)
    assert delete_dominated(seq(11, 4, 4, 12)).quotas == (4, 12)


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


@given(quota_seqs())
def test_canonicalize_properties(s):
    raw, n = s.quotas, s.n
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


def test_is_minimal_examples():
    assert is_minimal(seq(11, 5, 2, 12))
    assert not is_minimal(seq(11, 5, 2, 7, 12))
    assert is_minimal(seq(3, 4))


def test_canonicalize_matches_fixpoint_on_all_distinct_sequences():
    for n in range(1, 7):
        for s in all_valid_r_tuples(n):
            assert canonicalize(s.quotas, n) == reference_canonicalize(s.quotas, n)


@given(padded_sequences())
def test_canonicalize_matches_fixpoint_with_repeats_and_padding(raw_n):
    raw, n = raw_n
    assert canonicalize(raw, n) == reference_canonicalize(raw, n)

import pytest

from quotamaj import (
    Alternative,
    QuotaSeq,
    SearchBudgetExceeded,
    all_count_profiles,
    canonicalize,
    dual,
    enumerate_all,
    extract,
    proper_to_subset,
    subset_to_proper,
    to_table,
)
from quotamaj.engine import _interleave
from quotamaj.enumeration import _family_staircases

A, B = Alternative.A, Alternative.B


def test_subset_examples():
    assert subset_to_proper({2, 5}, B, 11).quotas == (5, 2, 12)
    assert subset_to_proper(set(), B, 11).quotas == (12,)
    assert subset_to_proper({3, 7, 9}, B, 11).quotas == (7, 9, 3, 12)
    assert subset_to_proper({1, 2, 3}, B, 3).quotas == (2, 3, 1, 4)


def test_subset_examples_tables():
    # {2,5} with default b reproduces the worked rule's verbal definition
    table = to_table(subset_to_proper({2, 5}, B, 11))
    for p in all_count_profiles(11):
        expected = A if (p.na >= 5 or (2 <= p.na < 5 and p.nb < 7)) else B
        assert table.outcome(p.na, p.nb) is expected
    # {1,2,3} with default b is simple majority
    table = to_table(subset_to_proper({1, 2, 3}, B, 3))
    for p in all_count_profiles(3):
        assert table.outcome(p.na, p.nb) is (A if p.na > p.nb else B)


def test_proper_to_subset_examples():
    assert proper_to_subset(QuotaSeq(11, (5, 2, 12))) == (frozenset({2, 5}), B)
    assert proper_to_subset(QuotaSeq(11, (12,))) == (frozenset(), B)
    assert proper_to_subset(QuotaSeq(11, (7, 10, 0))) == (frozenset({2, 5}), A)


def test_enumerate_guard_boundary(monkeypatch):
    # 2**(n+1) rules are allowed exactly when they fit the budget
    from quotamaj import enumeration

    monkeypatch.setattr(enumeration, "MAX_RULES", 16)
    assert len(enumerate_all(3)) == 16
    monkeypatch.setattr(enumeration, "MAX_RULES", 15)
    with pytest.raises(SearchBudgetExceeded, match=r"^enumerating n=3 yields 2\*\*4 rules, budget is 15$"):
        enumerate_all(3)


def reference_subset_to_proper(subset, default, n):
    # the zig-zag filled one slot at a time, default a as the dual of default b
    members = set(subset)
    for v in members:
        if not 1 <= v <= n:
            raise ValueError(f"subset element {v} outside {{1, ..., {n}}}")
    if default is A:
        return dual(reference_subset_to_proper(members, B, n))
    if not members:
        return QuotaSeq(n, (n + 1,))
    vals = sorted(members)
    out = [0] * len(vals)
    lo, hi = 0, len(vals) - 1
    take_min = True
    for pos in range(len(vals) - 1, -1, -1):
        if take_min:
            out[pos] = vals[lo]
            lo += 1
        else:
            out[pos] = vals[hi]
            hi -= 1
        take_min = not take_min
    return QuotaSeq(n, tuple(out) + (n + 1,))


@pytest.mark.parametrize("n", range(1, 11))
def test_subset_to_proper_matches_reference_on_every_subset(n):
    for mask in range(2**n):
        subset = [i + 1 for i in range(n) if mask >> i & 1]
        for default in (A, B):
            assert subset_to_proper(subset, default, n) == reference_subset_to_proper(subset, default, n)


@pytest.mark.parametrize(
    "subset, n",
    [({0}, 11), ({12}, 11), ({0, 12}, 11), ({12, 0}, 11), ({-3, 5, 99}, 11), ([7, -1, -2], 11),
     ({2, 40, 3}, 5), ({1}, 0), (set(), 0)],
)
def test_subset_to_proper_rejects_like_reference(subset, n):
    for default in (A, B):
        with pytest.raises(ValueError) as expected:
            reference_subset_to_proper(subset, default, n)
        with pytest.raises(ValueError) as got:
            subset_to_proper(subset, default, n)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "n", [*range(1, 13), *(pytest.param(n, marks=pytest.mark.slow) for n in (13, 14))]
)
def test_enumerated_tables_equal_tabulation(n):
    family = enumerate_all(n)
    assert len(family) == 2 ** (n + 1)
    for seq, table in family:
        assert table == to_table(seq)


def assert_equals_public_construction(seq):
    public = QuotaSeq(seq.n, seq.quotas)
    assert QuotaSeq._trusted(seq.n, seq.quotas) == seq == public
    assert hash(seq) == hash(public) and repr(seq) == repr(public)
    assert type(seq.quotas) is tuple


@pytest.mark.parametrize("n", range(1, 11))
def test_trusted_sequences_equal_public_construction(n):
    family = enumerate_all(n)
    subsets = [[i + 1 for i in range(n) if mask >> i & 1] for mask in range(2**n)]
    expected = [subset_to_proper(s, default, n) for default in (B, A) for s in subsets]
    assert [seq for seq, _ in family] == expected
    for seq, table in family:
        # enumerate_all, dual, _interleave and canonicalize build trusted sequences
        levels = extract(table)
        interleaved = _interleave(n, levels.default, levels.pairs)
        for trusted in (seq, dual(seq), interleaved, canonicalize(interleaved.quotas, n)):
            assert_equals_public_construction(trusted)


def test_family_guard_edge():
    # the budget of 2**16 rules admits n = 15, and tests/test_errors.py
    # holds its refusal of n = 16; with the row lengths c as the pieces,
    # each row holds every rule's c
    rows = _family_staircases(15, [list(range(17 - na)) for na in range(16)])
    assert len(rows) == 16 and {len(row) for row in rows} == {2**16}

import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quotamaj import (
    Alternative,
    CountProfile,
    CountTable,
    FullTable,
    Preference,
    QuotaSeq,
    all_count_profiles,
    all_full_profiles,
    count_of,
    count_table_size,
    enumerate_all,
)
from quotamaj.tables import _grid, _place_rows

A, B, I = Preference.A, Preference.B, Preference.INDIFFERENT


def test_count_of_examples():
    assert count_of((A, B, I)) == CountProfile(1, 1, 3)
    assert count_of((I, I, I)) == CountProfile(0, 0, 3)
    assert count_of((A,) * 5 + (B,) * 6) == CountProfile(5, 6, 11)


def test_all_count_profiles_small():
    assert [(p.na, p.nb) for p in all_count_profiles(1)] == [(0, 0), (0, 1), (1, 0)]
    assert len(all_count_profiles(2)) == 6
    assert len(all_count_profiles(11)) == 78


def test_all_count_profiles_distinct_and_valid():
    for n in range(1, 9):
        profiles = all_count_profiles(n)
        assert len(profiles) == count_table_size(n)
        assert len(set(profiles)) == len(profiles)
        for p in profiles:
            assert 0 <= p.na and 0 <= p.nb and p.na + p.nb <= n
            assert p.indifferent == n - p.na - p.nb


@given(st.lists(st.sampled_from([A, B, I]), min_size=1, max_size=7), st.randoms())
def test_count_of_permutation_invariant(voters, rng):
    shuffled = list(voters)
    rng.shuffle(shuffled)
    assert count_of(tuple(shuffled)) == count_of(tuple(voters))


def test_count_table_structure():
    table = CountTable.from_function(
        3, lambda p: Alternative.A if p.na > p.nb else Alternative.B
    )
    assert len(table.outcomes) == 10
    assert table.outcome(2, 1) is Alternative.A
    assert table.outcome(1, 1) is Alternative.B
    rebuilt = CountTable.from_mapping(
        3, {(p.na, p.nb): o for p, o in table.items()}
    )
    assert rebuilt == table


def test_full_table_structure():
    table = FullTable.from_function(
        2, lambda prof: Alternative.A if prof[0] is A else Alternative.B
    )
    assert len(table.outcomes) == 9
    assert table.outcome((A, I)) is Alternative.A
    assert table.outcome((B, A)) is Alternative.B
    assert list(all_full_profiles(2)) == list(itertools.product((A, B, I), repeat=2))


@pytest.mark.parametrize("bad", [1, "x", None, "a", Preference.A])
def test_full_table_refuses_outcomes_that_are_not_alternatives(bad):
    outcomes = (Alternative.A, bad, Alternative.B)
    message = f"outcome must be an Alternative, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FullTable(1, outcomes)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CountTable(1, outcomes)


def test_full_table_stores_its_outcomes_as_a_tuple():
    outcomes = [Alternative.A, Alternative.B, Alternative.A]
    table = FullTable(1, outcomes)
    assert table == FullTable(1, tuple(outcomes)) and type(table.outcomes) is tuple
    assert hash(table) == hash(FullTable(1, tuple(outcomes)))
    outcomes[0] = Alternative.B
    assert table.outcomes[0] is Alternative.A


@pytest.mark.parametrize("bad", ["zzz", "a", Alternative.A, 0, None])
def test_full_table_outcome_refuses_profile_items_that_are_not_preferences(bad):
    table = FullTable(2, (Alternative.A,) * 9)
    message = f"profile item must be a Preference, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        table.outcome((A, bad))
    with pytest.raises(ValueError, match="^profile length 3 does not match n=2$"):
        table.outcome((A, I, bad))


def reference_quota_seq_error(n, quotas):
    # the per-entry checks of QuotaSeq, in order; None when all pass
    if n < 1:
        return ValueError(f"society size must be at least 1, got {n}")
    if not quotas:
        return ValueError("quota sequence must be nonempty")
    for q in quotas:
        if not 0 <= q <= n + 1:
            return ValueError(f"quota {q} outside [0, {n + 1}] for society size {n}")
    if not any(q in (0, n + 1) for q in quotas):
        return ValueError(
            "quota sequence needs an element in {0, n+1}; otherwise some profiles are never decided"
        )
    return None


def assert_quota_seq_checks_like_reference(n, quotas):
    expected = reference_quota_seq_error(n, quotas)
    if expected is None:
        assert QuotaSeq(n, quotas).quotas == tuple(quotas)
        return
    with pytest.raises(type(expected)) as got:
        QuotaSeq(n, quotas)
    assert str(got.value) == str(expected)


@pytest.mark.parametrize(
    "n, quotas",
    [(3, ()), (0, (1,)), (-2, ()), (3, (5,)), (3, (-1,)), (3, (2, 5, -1, 4)), (3, (2, -1, 5, 4)),
     (3, (1, 2, 3)), (3, (2,)), (3, (0,)), (3, (4,)), (3, (3, 1, 4)), (1, (1, 0, 2))],
)
def test_quota_seq_checks_like_per_entry_reference(n, quotas):
    assert_quota_seq_checks_like_reference(n, quotas)


@pytest.mark.parametrize("quotas", [(0, float("nan")), (float("nan"), 0)], ids=["nan-last", "nan-first"])
def test_quota_seq_refuses_nan_wherever_it_stands(quotas):
    # nan compares false with everything, so no min/max pre-check can see it
    with pytest.raises(ValueError, match=r"^quota nan outside \[0, 4\] for society size 3$"):
        QuotaSeq(3, quotas)
    assert_quota_seq_checks_like_reference(3, quotas)


@given(st.integers(1, 6), st.data())
def test_quota_seq_checks_like_per_entry_reference_on_random_input(n, data):
    quotas = data.draw(st.lists(st.integers(-2, n + 3), max_size=6))
    assert_quota_seq_checks_like_reference(n, quotas)


@pytest.mark.parametrize("n", range(1, 41))
def test_placing_a_tables_outcome_letters_gives_its_mask(n):
    rng = random.Random(n)
    _, valid = _grid(n)
    for _ in range(10):
        table = CountTable._from_mask(n, rng.getrandbits(valid.bit_length()) & valid)
        assert _place_rows(n, table.outcome_string()) == table.mask


@pytest.mark.parametrize("n", range(1, 9))
def test_placing_the_outcome_letters_of_every_rule_gives_its_mask(n):
    for _, table in enumerate_all(n):
        assert _place_rows(n, table.outcome_string()) == table.mask

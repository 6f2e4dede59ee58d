import pytest
from hypothesis import given
from hypothesis import strategies as st

from quotamaj import (
    Alternative,
    CountProfile,
    QuotaSeq,
    all_count_profiles,
    dual,
    evaluate,
    evaluate_strict_quota,
    is_proper,
    is_valid_r_tuple,
    length,
    profile_index,
    to_table,
)

from helpers import seq

A, B = Alternative.A, Alternative.B


@st.composite
def quota_seqs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    body = draw(st.lists(st.integers(0, n + 1), max_size=6))
    terminal = draw(st.sampled_from([0, n + 1]))
    return QuotaSeq(n, tuple(body) + (terminal,))


@st.composite
def valid_r_tuples(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    size = draw(st.integers(0, n))
    interior = draw(st.permutations(range(1, n + 1)))[:size]
    terminal = draw(st.sampled_from([0, n + 1]))
    return QuotaSeq(n, tuple(interior) + (terminal,))


def brute_index(quotas, n, na, nb):
    # independent scan straight from the definition
    return min(
        i for i, k in enumerate(quotas) if na >= k or nb >= n + 1 - k
    )


def test_profile_index_examples():
    s = seq(11, 5, 2, 12)
    assert profile_index(s, CountProfile(3, 7, 11)) == 0
    assert profile_index(s, CountProfile(3, 6, 11)) == 1
    assert profile_index(s, CountProfile(0, 0, 11)) == 2
    for p in all_count_profiles(11):
        assert profile_index(s, p) == brute_index(s.quotas, 11, p.na, p.nb)


def test_profile_index_rejects_mismatched_n():
    with pytest.raises(ValueError):
        profile_index(seq(11, 5, 2, 12), CountProfile(1, 1, 5))
    with pytest.raises(ValueError):
        evaluate(seq(11, 5, 2, 12), CountProfile(1, 1, 5))


def test_evaluate_worked_rule():
    s = seq(11, 5, 2, 12)
    assert evaluate(s, CountProfile(6, 5, 11)) is A
    assert evaluate(s, CountProfile(3, 6, 11)) is A
    assert evaluate(s, CountProfile(3, 7, 11)) is B
    constant = seq(11, 12)
    assert all(evaluate(constant, p) is B for p in all_count_profiles(11))


def test_evaluate_strict_quota():
    assert evaluate_strict_quota(5, CountProfile(5, 6, 11)) is A
    assert evaluate_strict_quota(5, CountProfile(4, 7, 11)) is B
    assert evaluate_strict_quota(0, CountProfile(0, 11, 11)) is A
    with pytest.raises(ValueError):
        evaluate_strict_quota(5, CountProfile(4, 6, 11))
    with pytest.raises(ValueError):
        evaluate_strict_quota(13, CountProfile(5, 6, 11))


def test_length_examples():
    assert length(seq(11, 4, 3, 7, 2, 8, 1, 12)) == 6
    assert length(seq(11, 4, 7, 3, 9, 0)) == 4
    assert length(seq(11, 12)) == 0


def test_is_proper_examples():
    assert is_proper(seq(11, 4, 3, 7, 2, 8, 1, 12))
    assert is_proper(seq(11, 4, 5, 3, 7, 1, 12))
    assert is_proper(seq(11, 7, 6, 8, 5, 10, 3, 11, 0))
    assert is_proper(seq(11, 4, 7, 3, 9, 0))
    assert is_proper(seq(11, 5, 2, 12))
    assert not is_proper(seq(11, 5, 2, 7, 12))
    assert not is_proper(seq(11, 5, 2, 9, 12))
    # same side twice in a row, or a terminal that is not last
    assert not is_proper(seq(11, 5, 2, 1, 12))
    assert not is_proper(seq(11, 12, 5, 0))
    # singleton constants are proper
    assert is_proper(seq(11, 12))
    assert is_proper(seq(11, 0))


def test_is_valid_r_tuple():
    assert is_valid_r_tuple(seq(11, 5, 2, 12))
    assert is_valid_r_tuple(seq(11, 12))
    assert not is_valid_r_tuple(seq(11, 5, 5, 12))
    assert not is_valid_r_tuple(seq(11, 12, 5, 0))
    assert not is_valid_r_tuple(seq(11, 5, 0, 12))


def test_dual_examples():
    assert dual(seq(11, 5, 2, 12)).quotas == (7, 10, 0)
    assert dual(seq(11, 12)).quotas == (0,)
    assert dual(seq(3, 2, 4)).quotas == (2, 0)


def test_dual_swap_identity():
    for s in (seq(11, 5, 2, 12), seq(3, 2, 4), seq(5, 3, 1, 6)):
        d = dual(s)
        for p in all_count_profiles(s.n):
            mirrored = CountProfile(p.nb, p.na, p.n)
            assert evaluate(d, mirrored) is evaluate(s, p).other


@given(quota_seqs())
def test_dual_involution(s):
    assert dual(dual(s)) == s
    assert is_proper(dual(s)) == is_proper(s)


@given(quota_seqs())
def test_totality_and_exclusivity(s):
    n = s.n
    for p in all_count_profiles(n):
        lam = profile_index(s, p)
        k = s.quotas[lam]
        assert p.na >= k or p.nb >= n + 1 - k
        assert not (p.na >= k and p.nb >= n + 1 - k)


@given(valid_r_tuples())
def test_strict_profiles_reduce_to_first_quota(s):
    n = s.n
    for na in range(n + 1):
        p = CountProfile(na, n - na, n)
        assert evaluate(s, p) is evaluate_strict_quota(s.quotas[0], p)
        assert profile_index(s, p) == 0


@given(valid_r_tuples(max_n=6))
def test_range_property(s):
    outcomes = set(to_table(s).outcomes)
    k0 = s.quotas[0]
    if k0 == 0:
        assert outcomes == {A}
    elif k0 == s.n + 1:
        assert outcomes == {B}
    else:
        assert outcomes == {A, B}


def test_to_table_simple_majority():
    # independently stated rule: a wins exactly on strictly larger support
    table = to_table(seq(3, 2, 3, 1, 4))
    for p in all_count_profiles(3):
        expected = A if p.na > p.nb else B
        assert table.outcome(p.na, p.nb) is expected


def test_to_table_constant():
    table = to_table(seq(3, 4))
    assert set(table.outcomes) == {B}


def test_to_table_worked_rule_matches_verbal_definition():
    table = to_table(seq(11, 5, 2, 12))
    for p in all_count_profiles(11):
        expected = A if (p.na >= 5 or (2 <= p.na < 5 and p.nb < 7)) else B
        assert table.outcome(p.na, p.nb) is expected

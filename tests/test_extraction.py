import pytest

import quotamaj.extraction as extraction
from quotamaj import (
    Alternative,
    CountProfile,
    CountTable,
    LKSequence,
    NotStrategyProof,
    all_count_profiles,
    covered_a,
    covered_b,
    enumerate_all,
    extract,
    find_manipulation,
    interleave,
    psi_eval,
    represent,
    to_table,
)

from certificates import exhaustive_sp_family
from helpers import majority3, manipulable3, reference_row_thresholds, worked_table

A, B = Alternative.A, Alternative.B


def test_covered_examples():
    assert covered_a((0, 5), CountProfile(6, 5, 11))
    assert covered_b((1, 4), CountProfile(3, 7, 11))
    p = CountProfile(4, 6, 11)
    assert not covered_a((0, 5), p) and not covered_b((0, 5), p)


def test_covered_disjoint():
    for ell, k in ((0, 5), (1, 4), (2, 3), (3, 2), (0, 11), (10, 1)):
        for p in all_count_profiles(11):
            assert not (covered_a((ell, k), p) and covered_b((ell, k), p))


def test_covered_b_checks_its_level_once(monkeypatch):
    levels = LKSequence(11, B, ((0, 5), (1, 4), (2, 3), (3, 2)))
    calls = []
    check = extraction._check_pair

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(extraction, "_check_pair", counting)
    assert covered_b((1, 4), CountProfile(3, 7, 11))
    assert calls == [(11, 1, 4)]
    # the levels were checked when they were built
    assert psi_eval(levels, CountProfile(1, 1, 11)) is B
    assert calls == [(11, 1, 4)]


def test_psi_eval_worked_levels():
    levels = LKSequence(11, B, ((0, 5), (1, 4), (2, 3), (3, 2)))
    assert psi_eval(levels, CountProfile(3, 6, 11)) is A
    assert psi_eval(levels, CountProfile(1, 5, 11)) is B
    assert psi_eval(levels, CountProfile(0, 7, 11)) is B
    table = worked_table()
    for p in all_count_profiles(11):
        assert psi_eval(levels, p) is table.outcome(p.na, p.nb)


def test_psi_eval_refuses_a_profile_of_another_society():
    levels = LKSequence(11, B, ((0, 5),))
    with pytest.raises(ValueError, match="^society size mismatch: levels have n=11, profile has n=10$"):
        psi_eval(levels, CountProfile(3, 6, 10))


def test_interleave_examples():
    levels = LKSequence(11, B, ((0, 5), (1, 4), (2, 3), (3, 2)))
    assert interleave(levels).quotas == (5, 5, 5, 4, 5, 3, 5, 2, 12)
    assert interleave(LKSequence(3, B, ((0, 2), (2, 1)))).quotas == (2, 2, 3, 1, 4)
    assert interleave(LKSequence(7, B, ((0, 4),))).quotas == (4, 4, 8)
    assert interleave(LKSequence(3, B, ())).quotas == (4,)
    assert interleave(LKSequence(3, A, ())).quotas == (0,)


def test_interleave_matches_psi_tabulation():
    for levels in (
        LKSequence(11, B, ((0, 5), (1, 4), (2, 3), (3, 2))),
        LKSequence(3, B, ((0, 2), (2, 1))),
        LKSequence(3, A, ((0, 2), (2, 1))),
        LKSequence(4, A, ((0, 1), (1, 1))),
    ):
        table = to_table(interleave(levels))
        for p in all_count_profiles(levels.n):
            assert psi_eval(levels, p) is table.outcome(p.na, p.nb)


def test_extract_worked_table():
    levels = extract(worked_table())
    assert levels.default is B
    assert levels.pairs == ((0, 5), (1, 4), (2, 3), (3, 2))
    assert [levels.margin(i) for i in range(4)] == [7, 7, 7, 7]


def test_extract_majority():
    levels = extract(majority3())
    assert levels.default is B
    assert levels.pairs == ((0, 2), (2, 1))
    table = majority3()
    for p in all_count_profiles(3):
        assert psi_eval(levels, p) is table.outcome(p.na, p.nb)


def test_extract_constants():
    constant_a = CountTable.from_function(4, lambda p: A)
    levels = extract(constant_a)
    assert levels.default is A and levels.pairs == ()
    constant_b = CountTable.from_function(4, lambda p: B)
    levels = extract(constant_b)
    assert levels.default is B and levels.pairs == ()


def test_extract_rejects_manipulable_table():
    message = "^table is manipulable: at na=2 nb=1, a-voter misreporting as i turns b into a$"
    with pytest.raises(NotStrategyProof, match=message) as err:
        extract(manipulable3())
    assert err.value.counterexample == find_manipulation(manipulable3())


def test_represent_examples():
    assert represent(worked_table()).quotas == (5, 2, 12)
    assert represent(majority3()).quotas == (2, 3, 1, 4)
    assert represent(CountTable.from_function(11, lambda p: B)).quotas == (12,)
    assert represent(CountTable.from_function(11, lambda p: A)).quotas == (0,)


def test_round_trip_through_enumeration():
    for n in range(1, 9):
        for seq, table in enumerate_all(n):
            assert represent(table) == seq


def _reference_pairs_default_b(n, outcome):
    profiles = sorted(
        ((na, nb) for na in range(n + 1) for nb in range(n + 1 - na)),
        key=lambda p: (n - p[0] - p[1], p[0], p[1]),
    )
    thresholds = reference_row_thresholds(n, outcome)
    uncovered = set(profiles)
    pairs = []
    while True:
        witness = next((p for p in profiles if p in uncovered and outcome(*p) is A), None)
        if witness is None:
            return pairs
        ell = n - witness[0] - witness[1]
        k = thresholds[ell]
        assert 1 <= k <= n - ell
        m = n - ell - k + 1
        uncovered = {
            (na, nb)
            for na, nb in uncovered
            if not ((na >= k and nb < m) or (na < k and nb >= m))
        }
        pairs.append((ell, k))


def reference_levels(table):
    """The uncovered-set walk: find the least-indifference a-win no level
    covers yet, read its row's quota, shrink the set, repeat; default a
    goes through the mirrored table."""
    n = table.n
    default = table.outcome(0, 0)
    if default is B:
        return default, tuple(_reference_pairs_default_b(n, table.outcome))
    mirrored = _reference_pairs_default_b(n, lambda na, nb: table.outcome(nb, na).other)
    return default, tuple((ell, n - ell - k + 1) for ell, k in mirrored)


def test_extract_matches_uncovered_set_walk():
    tables = [table for n in (1, 2, 3, 4) for table in exhaustive_sp_family(n)]
    tables += [table for n in range(1, 9) for _, table in enumerate_all(n)]
    for table in tables:
        levels = extract(table)
        assert (levels.default, levels.pairs) == reference_levels(table)

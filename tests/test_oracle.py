import random

import pytest

from quotamaj import (
    Alternative,
    CountTable,
    FullTable,
    Preference,
    QuotaSeq,
    SearchBudgetExceeded,
    check_anonymous,
    check_strategy_proof,
    check_strategy_proof_full,
    count_table_size,
    enumerate_all,
    exhaustive_sp_family,
    expand_to_full,
    find_manipulation,
    find_manipulation_full,
    is_onto,
    reduce_to_counts,
    subset_to_proper,
    tables_equal,
    to_table,
)

A, B = Alternative.A, Alternative.B


def majority3():
    return CountTable.from_function(3, lambda p: A if p.na > p.nb else B)


def broken_majority3():
    # majority with two outcomes flipped: (1,1) wins for a, (2,1) for b
    def rule(p):
        if (p.na, p.nb) == (1, 1):
            return A
        if (p.na, p.nb) == (2, 1):
            return B
        return A if p.na > p.nb else B

    return CountTable.from_function(3, rule)


def dictatorship2():
    # voter 0 decides; their indifference defaults to b
    def rule(profile):
        if profile[0] is Preference.A:
            return A
        return B

    return FullTable.from_function(2, rule)


def all_count_tables(n):
    size = count_table_size(n)
    for mask in range(2**size):
        yield CountTable(
            n, tuple(A if mask >> i & 1 else B for i in range(size))
        )


def test_check_anonymous():
    assert check_anonymous(expand_to_full(majority3()))
    assert not check_anonymous(dictatorship2())
    assert check_anonymous(FullTable.from_function(2, lambda prof: B))


def test_reduce_to_counts():
    constant = FullTable.from_function(2, lambda prof: B)
    assert set(reduce_to_counts(constant).outcomes) == {B}
    assert reduce_to_counts(expand_to_full(majority3())) == majority3()
    with pytest.raises(ValueError):
        reduce_to_counts(dictatorship2())


def test_expand_reduce_round_trip():
    for _, table in enumerate_all(3):
        assert reduce_to_counts(expand_to_full(table)) == table


def test_strategy_proof_majority():
    assert check_strategy_proof(majority3())
    assert find_manipulation(majority3()) is None


def test_strategy_proof_worked_rule():
    assert check_strategy_proof(to_table(QuotaSeq(11, (5, 2, 12))))


def test_strategy_proof_finds_constructed_violation():
    witness = find_manipulation(broken_majority3())
    assert witness is not None
    assert (witness.profile.na, witness.profile.nb) == (2, 1)
    assert witness.truthful is Preference.A
    assert witness.misreport is Preference.INDIFFERENT
    assert (witness.misreported_profile.na, witness.misreported_profile.nb) == (1, 1)


def test_count_counterexample_replays():
    table = broken_majority3()
    witness = find_manipulation(table)
    honest = table.outcome(witness.profile.na, witness.profile.nb)
    misreported = witness.misreported_profile
    manipulated = table.outcome(misreported.na, misreported.nb)
    assert honest is witness.honest_outcome
    assert manipulated is witness.manipulated_outcome
    # the deviator strictly prefers the manipulated outcome
    wanted = A if witness.truthful is Preference.A else B
    assert manipulated is wanted and honest is not wanted


def test_strategy_proof_full():
    assert check_strategy_proof_full(expand_to_full(majority3()))
    assert check_strategy_proof_full(dictatorship2())
    witness = find_manipulation_full(expand_to_full(broken_majority3()))
    assert witness is not None
    replayed = expand_to_full(broken_majority3()).outcome(witness.misreported_profile)
    assert replayed is witness.manipulated_outcome


def test_strategy_proof_full_guard():
    table = expand_to_full(majority3())
    with pytest.raises(SearchBudgetExceeded):
        find_manipulation_full(table, max_n=2)


def test_is_onto():
    assert not is_onto(CountTable.from_function(3, lambda p: B))
    assert is_onto(majority3())
    assert is_onto(to_table(QuotaSeq(11, (5, 2, 12))))


def test_tables_equal():
    worked = to_table(QuotaSeq(11, (5, 2, 12)))
    assert tables_equal(to_table(QuotaSeq(11, (5, 2, 7, 12))), worked)
    assert tables_equal(to_table(QuotaSeq(11, (5, 2, 9, 12))), worked)
    assert not tables_equal(to_table(QuotaSeq(11, (7, 10, 0))), worked)
    assert tables_equal(worked, worked)
    with pytest.raises(ValueError):
        tables_equal(majority3(), worked)


def test_exhaustive_family_sizes():
    assert len(exhaustive_sp_family(1)) == 4
    assert len(exhaustive_sp_family(2)) == 8
    assert len(exhaustive_sp_family(3)) == 16


def test_exhaustive_family_guard():
    with pytest.raises(SearchBudgetExceeded):
        exhaustive_sp_family(6)


def test_exhaustive_family_matches_enumeration():
    for n in (1, 2, 3):
        found = {t.outcomes for t in exhaustive_sp_family(n)}
        built = {t.outcomes for _, t in enumerate_all(n)}
        assert found == built


def test_exhaustive_family_members_pass_checker():
    for n in (1, 2, 3):
        for table in exhaustive_sp_family(n):
            assert check_strategy_proof(table)


def test_enumerated_family_strategy_proof():
    for n in (1, 2, 3, 4, 5):
        for _, table in enumerate_all(n):
            assert check_strategy_proof(table)


def test_soundness_link_small():
    # count-level and full-profile checkers agree on every anonymous table
    for n in (1, 2, 3):
        for table in all_count_tables(n):
            assert check_strategy_proof(table) == check_strategy_proof_full(
                expand_to_full(table)
            )


@pytest.mark.slow
def test_soundness_link_n4():
    for table in all_count_tables(4):
        assert check_strategy_proof(table) == check_strategy_proof_full(
            expand_to_full(table)
        )


# Profile-by-profile references for the oracle's bitmask checks: a scan of
# every profile with one branch per losing outcome, and a filter over
# per-position closure requirements.  They share no code with the oracle.


def reference_find_manipulation(table):
    """(na, nb, truthful, misreport, honest, manipulated) of the first witness."""
    n = table.n
    for na in range(n + 1):
        for nb in range(n + 1 - na):
            outcome = table.outcome(na, nb)
            if outcome is B and na >= 1:
                for mis, qa, qb in (
                    (Preference.INDIFFERENT, na - 1, nb),
                    (Preference.B, na - 1, nb + 1),
                ):
                    if table.outcome(qa, qb) is A:
                        return (na, nb, Preference.A, mis, outcome, A)
            elif outcome is A and nb >= 1:
                for mis, qa, qb in (
                    (Preference.INDIFFERENT, na, nb - 1),
                    (Preference.A, na + 1, nb - 1),
                ):
                    if table.outcome(qa, qb) is B:
                        return (na, nb, Preference.B, mis, outcome, B)
    return None


def reference_sp_family(n):
    profiles = [(na, nb) for na in range(n + 1) for nb in range(n + 1 - na)]
    index = {p: i for i, p in enumerate(profiles)}
    required = []
    for na, nb in profiles:
        mask = 0
        if na + nb < n:
            mask |= 1 << index[(na + 1, nb)]
        if nb >= 1:
            mask |= 1 << index[(na, nb - 1)]
            mask |= 1 << index[(na + 1, nb - 1)]
        required.append(mask)
    bits = range(len(profiles))
    family = []
    for mask in range(2 ** len(profiles)):
        if any(mask >> i & 1 and required[i] & ~mask for i in bits):
            continue
        family.append(tuple(A if mask >> i & 1 else B for i in bits))
    return family


def witness_fields(witness):
    if witness is None:
        return None
    return (
        witness.profile.na,
        witness.profile.nb,
        witness.truthful,
        witness.misreport,
        witness.honest_outcome,
        witness.manipulated_outcome,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_find_manipulation_matches_profile_scan_on_every_table(n):
    for table in all_count_tables(n):
        assert witness_fields(find_manipulation(table)) == reference_find_manipulation(table)


def test_find_manipulation_matches_profile_scan_near_strategy_proof():
    # strategy-proof tables with a few flipped cells, so witnesses sit anywhere
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 60)
        subset = {v for v in range(1, n + 1) if rng.random() < 0.5}
        cells = list(to_table(subset_to_proper(subset, rng.choice((A, B)), n)).outcomes)
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(cells))
            cells[i] = cells[i].other
        table = CountTable(n, tuple(cells))
        expected = reference_find_manipulation(table)
        assert witness_fields(find_manipulation(table)) == expected
        found += expected is not None
    assert 0 < found < 300


def test_exhaustive_family_matches_closure_filter():
    for n in (1, 2, 3, 4):
        assert [t.outcomes for t in exhaustive_sp_family(n)] == reference_sp_family(n)

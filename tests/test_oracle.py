import itertools
import random
from itertools import accumulate

import pytest

from quotamaj import (
    Alternative,
    CountTable,
    FullTable,
    Preference,
    QuotaSeq,
    all_full_profiles,
    check_anonymous,
    count_of,
    count_table_size,
    enumerate_all,
    expand_to_full,
    find_manipulation,
    find_manipulation_full,
    is_onto,
    proper_to_subset,
    reduce_to_counts,
    represent,
    subset_to_proper,
    to_table,
)
from quotamaj.oracle import _escapes
from quotamaj.tables import _grid, _prefix_rows

import certificates
from certificates import exhaustive_sp_family
from helpers import dictator, every_count_table, majority3, manipulable3

A, B = Alternative.A, Alternative.B


def test_check_anonymous():
    assert check_anonymous(expand_to_full(majority3()))
    assert not check_anonymous(FullTable.from_function(2, dictator))
    assert check_anonymous(FullTable.from_function(2, lambda prof: B))


def test_reduce_to_counts():
    constant = FullTable.from_function(2, lambda prof: B)
    assert set(reduce_to_counts(constant).outcomes) == {B}
    assert reduce_to_counts(expand_to_full(majority3())) == majority3()


def test_strategy_proof_majority():
    assert find_manipulation(majority3()) is None


def test_strategy_proof_worked_rule():
    assert find_manipulation(to_table(QuotaSeq(11, (5, 2, 12)))) is None


def test_strategy_proof_finds_constructed_violation():
    witness = find_manipulation(manipulable3())
    assert witness is not None
    assert (witness.profile.na, witness.profile.nb) == (2, 1)
    assert witness.truthful is Preference.A
    assert witness.misreport is Preference.INDIFFERENT
    assert (witness.misreported_profile.na, witness.misreported_profile.nb) == (1, 1)


def test_count_counterexample_replays():
    table = manipulable3()
    witness = find_manipulation(table)
    honest = table.outcome(witness.profile.na, witness.profile.nb)
    misreported = witness.misreported_profile
    manipulated = table.outcome(misreported.na, misreported.nb)
    assert honest is witness.honest_outcome
    assert manipulated is witness.manipulated_outcome
    # the deviator strictly prefers the manipulated outcome
    wanted = A if witness.truthful is Preference.A else B
    assert manipulated is wanted and honest is not wanted


@pytest.mark.parametrize(
    "outcomes, profile, truthful, misreport, misreported",
    [
        ("aaaaab", (1, 1), Preference.B, Preference.A, (2, 0)),
        ("aababa", (1, 1), Preference.A, Preference.INDIFFERENT, (0, 1)),
        ("abaaaa", (0, 2), Preference.B, Preference.INDIFFERENT, (0, 1)),
    ],
)
def test_the_witness_of_each_move_replays(outcomes, profile, truthful, misreport, misreported):
    # one n=2 table per move of the oracle, its outcomes in
    # all_count_profiles order; the first witness replays to the profile
    # where the table gives the manipulated outcome
    table = CountTable(2, tuple(map(Alternative, outcomes)))
    witness = find_manipulation(table)
    assert ((witness.profile.na, witness.profile.nb), witness.truthful, witness.misreport) == (
        profile, truthful, misreport,
    )
    replayed = witness.misreported_profile
    assert (replayed.na, replayed.nb) == misreported
    assert table.outcome(*misreported) is witness.manipulated_outcome


def test_a_witness_is_built_from_all_five_fields_or_refused():
    # the witnesses declare their fields in __slots__ alone: a missing field
    # is not left unset, nor an extra one dropped
    table = manipulable3()
    for witness in (find_manipulation(table), find_manipulation_full(expand_to_full(table))):
        fields = witness._field_values(witness)
        assert type(witness)(*fields) == witness
        for wrong in (fields[:-1], (*fields, A)):
            with pytest.raises(ValueError):
                type(witness)(*wrong)


def test_strategy_proof_full():
    assert find_manipulation_full(expand_to_full(majority3())) is None
    assert find_manipulation_full(FullTable.from_function(2, dictator)) is None
    witness = find_manipulation_full(expand_to_full(manipulable3()))
    assert witness is not None
    replayed = expand_to_full(manipulable3()).outcome(witness.misreported_profile)
    assert replayed is witness.manipulated_outcome


def test_strategy_proof_full_guard():
    # no budget bounds the shifts: n=10 is checked here, and n=11 by the
    # verify line of tests/test_cli.py on full-dictator-n11
    assert find_manipulation_full(FullTable(10, (A,) * 3**10)) is None


def test_is_onto():
    assert not is_onto(CountTable.from_function(3, lambda p: B))
    assert is_onto(majority3())
    assert is_onto(to_table(QuotaSeq(11, (5, 2, 12))))


def test_tables_equal():
    worked = to_table(QuotaSeq(11, (5, 2, 12)))
    assert to_table(QuotaSeq(11, (5, 2, 7, 12))) == worked
    assert to_table(QuotaSeq(11, (5, 2, 9, 12))) == worked
    assert to_table(QuotaSeq(11, (7, 10, 0))) != worked
    assert worked == worked
    assert majority3() != worked


@pytest.mark.slow
def test_exhaustive_family_matches_enumeration_at_n16(monkeypatch):
    from quotamaj import enumeration

    # n=16 has 2**17 rules, twice the budget, which each module reads as its own name
    monkeypatch.setattr(certificates, "MAX_RULES", 2**17)
    monkeypatch.setattr(enumeration, "MAX_RULES", 2**17)
    found = [t.mask for t in exhaustive_sp_family(16)]
    assert found == sorted(t.mask for _, t in enumerate_all(16))


@pytest.mark.parametrize("n", range(1, 7))
def test_exhaustive_family_is_every_closed_row_prefix_table(n):
    # closure under "b loses a supporter" alone makes each row na a prefix
    # nb < c with 0 <= c <= n+1-na, so filtering every such table through
    # the three moves finds the whole family
    width, valid = _grid(n)
    found = []
    for stairs in itertools.product(*(range(n + 2 - na) for na in range(n + 1))):
        mask = sum(((1 << c) - 1) << (na * width) for na, c in enumerate(stairs))
        if not any(_escapes(mask, width, valid)):
            found.append(mask)
    assert sorted(found) == [t.mask for t in exhaustive_sp_family(n)]


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
    # and is_onto against a scan of the outcomes, on the same tables
    for outcomes, table in every_count_table(n):
        assert witness_fields(find_manipulation(table)) == reference_find_manipulation(table)
        assert is_onto(table) == (A in outcomes and B in outcomes)


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


# References for the full-table checks, which look outcomes up by profile
# tuple, not by position: a scan of every voter's misreports against the
# masked shifts per voter, and the classes of equal-count profiles against
# the `_classes`/`expand_to_full` round trip.


def reference_find_manipulation_full(table):
    """(profile, voter, misreport, honest, manipulated) of the first witness."""
    profiles = list(itertools.product(Preference, repeat=table.n))
    outcome_of = dict(zip(profiles, table.outcomes))
    for profile in profiles:
        outcome = outcome_of[profile]
        for voter, truthful in enumerate(profile):
            if truthful is Preference.INDIFFERENT:
                continue  # indifferent voters cannot profit
            wanted = A if truthful is Preference.A else B
            if outcome is wanted:
                continue
            for mis in Preference:
                changed = profile[:voter] + (mis,) + profile[voter + 1:]
                if mis is not truthful and outcome_of[changed] is wanted:
                    return (profile, voter, mis, outcome, wanted)
    return None


def reference_class_outcomes(table):
    """Each class's outcome keyed by (na, nb), or None when the table is not
    constant on some class of equal-count profiles."""
    seen = {}
    for profile, outcome in zip(itertools.product(Preference, repeat=table.n), table.outcomes):
        counts = count_of(profile)
        if seen.setdefault((counts.na, counts.nb), outcome) is not outcome:
            return None
    return seen


def full_witness_fields(witness):
    if witness is None:
        return None
    return (
        witness.profile,
        witness.voter,
        witness.misreport,
        witness.honest_outcome,
        witness.manipulated_outcome,
    )


def assert_full_checks_match_references(table):
    expected = reference_find_manipulation_full(table)
    assert full_witness_fields(find_manipulation_full(table)) == expected
    classes = reference_class_outcomes(table)
    assert check_anonymous(table) == (classes is not None)
    if classes is None:
        with pytest.raises(ValueError, match=r"^table is not anonymous; it has no count form$"):
            reduce_to_counts(table)
    else:
        assert reduce_to_counts(table) == CountTable.from_mapping(table.n, classes)
    return expected is not None, classes is not None


def flip(cells, positions):
    flipped = list(cells)
    for i in positions:
        flipped[i] = flipped[i].other
    return tuple(flipped)


def test_full_checks_match_references_on_every_table_n2():
    verdicts = set()
    for cells in itertools.product((A, B), repeat=9):
        verdicts.add(assert_full_checks_match_references(FullTable(2, cells)))
    assert verdicts == {(m, a) for m in (False, True) for a in (False, True)}


@pytest.mark.parametrize("n", range(1, 7))
def test_full_checks_match_references_on_random_tables(n):
    rng = random.Random(1300 + n)
    for _ in range(40):
        bias = rng.random()
        cells = tuple(A if rng.random() < bias else B for _ in range(3**n))
        assert_full_checks_match_references(FullTable(n, cells))


@pytest.mark.parametrize("n", range(1, 7))
def test_full_checks_match_references_on_flipped_family_tables(n):
    # up to three cells flipped in the count table (still anonymous) or in
    # its full expansion (anonymous only when no cell flips)
    rng = random.Random(1310 + n)
    verdicts = set()
    for k, (_, table) in enumerate(enumerate_all(n)):
        flips = k % 4
        counted = flip(table.outcomes, rng.sample(range(count_table_size(n)), flips))
        full = expand_to_full(CountTable(n, counted))
        verdicts.add(assert_full_checks_match_references(full))
        full = expand_to_full(table)
        cells = flip(full.outcomes, rng.sample(range(3**n), flips))
        verdicts.add(assert_full_checks_match_references(FullTable(n, cells)))
    assert {manipulable for manipulable, _ in verdicts} == {False, True}
    # at n=1 every class of equal-count profiles is one profile
    assert {anonymous for _, anonymous in verdicts} == ({True} if n == 1 else {False, True})


@pytest.mark.slow
def test_full_checks_match_references_on_flipped_tables_n11():
    # past the n=10 that a profile-by-profile scan was once limited to
    rng = random.Random(1311)
    family = [table for _, table in enumerate_all(11)]
    verdicts = set()
    for flips in (0, 1, 1, 3):
        cells = flip(expand_to_full(rng.choice(family)).outcomes, rng.sample(range(3**11), flips))
        verdicts.add(assert_full_checks_match_references(FullTable(11, cells)))
    assert {manipulable for manipulable, _ in verdicts} == {False, True}


SLOW_FAMILY_SIZES = [pytest.param(n, marks=pytest.mark.slow) for n in (7, 8)]


@pytest.mark.parametrize("n", [*range(1, 7), *SLOW_FAMILY_SIZES])
def test_family_passes_the_full_level_checks(n):
    for _, table in enumerate_all(n):
        full = expand_to_full(table)
        assert find_manipulation_full(full) is None
        assert reduce_to_counts(full) == table


def test_count_and_full_verdicts_agree_on_every_one_cell_flip_n5():
    verdicts = set()
    for _, table in enumerate_all(5):
        for cell in range(count_table_size(5)):
            flipped = CountTable(5, flip(table.outcomes, [cell]))
            verdict = find_manipulation(flipped) is None
            assert (find_manipulation_full(expand_to_full(flipped)) is None) == verdict
            verdicts.add(verdict)
    assert verdicts == {False, True}


@pytest.mark.parametrize("n", [6, *SLOW_FAMILY_SIZES])
def test_count_and_full_verdicts_agree_on_seeded_one_cell_flips(n):
    rng = random.Random(1320 + n)
    for _, table in enumerate_all(n):
        for cell in rng.sample(range(count_table_size(n)), 3):
            flipped = CountTable(n, flip(table.outcomes, [cell]))
            assert (find_manipulation_full(expand_to_full(flipped)) is None) == (find_manipulation(flipped) is None)


UPWARD = (Preference.B, Preference.INDIFFERENT, Preference.A)


def up_sets(n):
    """Every up-set of {b < i < a}^n, as a frozenset of full profiles.

    Split by the last voter's preference, an up-set is a chain
    U_b <= U_i <= U_a of up-sets of the first n-1 voters.
    """
    if n == 0:
        return [frozenset(), frozenset({()})]
    shorter = up_sets(n - 1)
    return [
        frozenset(p + (last,) for last, part in zip(UPWARD, chain) for p in part)
        for chain in itertools.product(shorter, repeat=3)
        if chain[0] <= chain[1] <= chain[2]
    ]


@pytest.mark.parametrize("n, count", [(1, 4), (2, 20), (3, 980)])
def test_the_strategy_proof_full_tables_are_the_up_sets(n, count):
    # the paper's "all, and only" per voter: a full table is strategy-proof
    # exactly when its a-region is an up-set, and the anonymous ones are the family
    regions = up_sets(n)
    assert len(set(regions)) == len(regions) == count
    tables = [FullTable.from_function(n, lambda p, region=region: A if p in region else B) for region in regions]
    assert all(find_manipulation_full(table) is None for table in tables)
    anonymous = {table.mask for table in tables if check_anonymous(table)}
    assert len(anonymous) == 2 ** (n + 1)
    assert anonymous == {expand_to_full(table).mask for _, table in enumerate_all(n)}
    if n <= 2:  # only those: every one of the 8 and 512 full tables
        profiles = list(all_full_profiles(n))
        for cells in itertools.product((A, B), repeat=3**n):
            region = frozenset(p for p, outcome in zip(profiles, cells) if outcome is A)
            assert (find_manipulation_full(FullTable(n, cells)) is None) == (region in regions)


# The strategy-proof tables are the staircases c_0..c_n, a winning (na, nb)
# exactly when nb < c_na, with 0 <= c_na <= n+1-na and
# c_na >= min(c_{na-1}, n+1-na) (see `exhaustive_sp_family`).  Counted by a
# suffix dynamic program, there are 2**(n+1) of them far beyond the n that
# any enumeration reaches, and the same program draws them uniformly.


def staircase_ways(n):
    """ways[na][c]: the staircases of rows na..n whose row na has length c."""
    ways = [[1, 1]]  # row n: c is 0 or 1
    for top in range(2, n + 2):  # top = n+1-na for the rows na = n-1..0
        # tail[k]: the ways with row na+1 at least k long; that row is at most top-1
        tail = [*accumulate(reversed(ways[-1]))][::-1]
        ways.append([tail[min(c, top - 1)] for c in range(top + 1)])
    return ways[::-1]


def sample_staircase(rng, n, ways):
    """A uniformly drawn staircase for n, with `ways` = staircase_ways(n)."""
    stairs, low = [], 0
    for na, row in enumerate(ways):
        pick = rng.randrange(sum(row[low:]))
        for c in range(low, n + 2 - na):
            if pick < row[c]:
                break
            pick -= row[c]
        stairs.append(c)
        low = min(c, n - na)  # the least length of the next row
    return stairs


@pytest.mark.parametrize(
    "sizes", [range(1, 201), pytest.param(range(201, 301), marks=pytest.mark.slow)], ids=["n1-200", "n201-300"]
)
def test_the_staircases_number_two_to_the_n_plus_1(sizes):
    for n in sizes:
        assert sum(staircase_ways(n)[0]) == 2 ** (n + 1), n


def test_the_staircase_sampler_draws_every_staircase_of_the_family():
    n = 3
    family = {tuple(table._staircase()) for table in exhaustive_sp_family(n)}
    rng = random.Random(2020)
    drawn = [tuple(sample_staircase(rng, n, staircase_ways(n))) for _ in range(800)]
    assert set(drawn) == family
    # 50 draws each are expected; a wrong weight would skew this far more
    assert all(25 <= drawn.count(stairs) <= 75 for stairs in family)


@pytest.mark.parametrize("n", [100, 300])
def test_sampled_staircases_are_represented_and_round_trip(n):
    rng = random.Random(1900 + n)
    ways = staircase_ways(n)
    for _ in range(10):
        stairs = sample_staircase(rng, n, ways)
        assert all(0 <= c <= n + 1 - na for na, c in enumerate(stairs))
        assert all(c >= min(above, n + 1 - na) for na, (above, c) in enumerate(zip(stairs, stairs[1:]), 1))
        table = CountTable._from_mask(n, _prefix_rows(n, stairs))
        assert find_manipulation(table) is None
        seq = represent(table)
        assert to_table(seq).mask == table.mask
        assert subset_to_proper(*proper_to_subset(seq), n) == seq

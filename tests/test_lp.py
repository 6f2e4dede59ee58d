import itertools
import random

from quotamaj import (
    Alternative,
    CountProfile,
    CountTable,
    LPRule,
    QuotaSeq,
    all_rules,
    enumerate_all,
    find_manipulation,
    is_onto,
    lp_eval,
    lp_to_proper,
    lp_to_table,
    proper_to_lp,
    represent,
    subset_to_proper,
    to_table,
)

from certificates import rules_matching_table

A, B = Alternative.A, Alternative.B

WORKED_Y = (2, 2, 2, 2, 2, 2, 2, 3, 4, 5)


def worked_rule():
    return LPRule(n=11, default=B, r=10, thresholds=WORKED_Y)


def test_b_side_thresholds():
    assert worked_rule().b_thresholds == (1, 2, 3, 4, 5, 6, 7, 7, 7, 7)


def test_lp_rule_accepts_exactly_the_threshold_vectors_of_its_definition():
    # a first threshold at the base and steps of 0 or +1 keep level i within
    # [base, base + i - 1], so the range is no third check
    def defined(base, thresholds):
        return (
            thresholds[0] == base
            and all(base <= v <= base + i - 1 for i, v in enumerate(thresholds, start=1))
            and all(nxt - cur in (0, 1) for cur, nxt in zip(thresholds, thresholds[1:]))
        )

    for n in range(1, 6):
        for default in (A, B):
            for r in range(1, n + 1):
                base = 1 if default is A else n - r + 1
                for thresholds in itertools.product(range(n + 2), repeat=r):
                    try:
                        LPRule(n, default, r, thresholds)
                    except ValueError:
                        accepted = False
                    else:
                        accepted = True
                    assert accepted is defined(base, thresholds), (n, default, r, thresholds)


def test_lp_eval_worked_rule():
    rule = worked_rule()
    assert lp_eval(rule, CountProfile(2, 0, 11)) is A
    assert lp_eval(rule, CountProfile(1, 1, 11)) is B
    assert lp_eval(rule, CountProfile(5, 6, 11)) is A


def test_lp_table_equals_worked_sequence():
    assert lp_to_table(worked_rule()) == to_table(QuotaSeq(11, (5, 2, 12)))


def test_proper_to_lp_worked_sequence():
    rule = proper_to_lp(QuotaSeq(11, (5, 2, 12)))
    assert rule.default is B
    assert rule.r == 10
    assert rule.thresholds == WORKED_Y


def test_proper_to_lp_majority():
    seq = QuotaSeq(3, (2, 3, 1, 4))
    rule = proper_to_lp(seq)
    assert lp_to_table(rule) == to_table(seq)


def test_proper_to_lp_dual_default():
    seq = QuotaSeq(11, (7, 10, 0))
    rule = proper_to_lp(seq)
    assert rule.default is A
    assert rule.r == 10
    assert lp_to_table(rule) == to_table(seq)


def test_lp_to_proper_worked_rule():
    assert lp_to_proper(worked_rule()).quotas == (5, 2, 12)


def test_lp_to_proper_single_level():
    n = 5
    rule = LPRule(n=n, default=B, r=1, thresholds=(n,))
    seq = lp_to_proper(rule)
    assert seq.quotas == (5, 6)
    assert lp_to_table(rule) == to_table(seq)


def test_round_trip_all_onto_sequences():
    for n in range(1, 9):
        for seq, table in enumerate_all(n):
            if not is_onto(table):
                continue
            rule = proper_to_lp(seq)
            assert lp_to_table(rule) == table
            if n <= 6:
                assert lp_to_proper(rule) == seq


def test_round_trip_at_large_n():
    # seeded onto proper sequences, from one level up to every member
    rng = random.Random(2000)
    n = 2000
    for size in (1, 2, 17, n // 2, n):
        for default in (B, A):
            seq = subset_to_proper(rng.sample(range(1, n + 1), size), default, n)
            assert lp_to_proper(proper_to_lp(seq)) == seq


def test_lp_to_proper_matches_representing_the_rule_table():
    for n in range(1, 9):
        for default in (B, A):
            for rule in all_rules(n, default):
                assert lp_to_proper(rule) == represent(lp_to_table(rule)), rule


def test_all_rules_are_strategy_proof_and_onto():
    for n in (1, 2, 3, 4):
        for default in (B, A):
            for rule in all_rules(n, default):
                table = lp_to_table(rule)
                assert find_manipulation(table) is None
                assert is_onto(table)


def test_default_a_final_threshold_is_leading_quota():
    # the last x threshold coincides with the first quota of the proper form
    for n in (3, 4, 5):
        for seq, table in enumerate_all(n):
            if not is_onto(table):
                continue
            rule = proper_to_lp(seq)
            if rule.default is A:
                assert rule.thresholds[-1] == seq.quotas[0]


def test_rules_matching_table_round_trip_small():
    for n in (2, 3, 4):
        for seq, table in enumerate_all(n):
            if not is_onto(table):
                continue
            matches = rules_matching_table(table)
            assert matches == [proper_to_lp(seq)]
            assert all(lp_to_table(rule) == table for rule in matches)


def test_rules_matching_table_finds_no_rule_for_other_tables():
    # random tables, most with a row that is no prefix, and random prefix
    # rows, most of them manipulable: a match exactly for a strategy-proof onto table
    rng = random.Random(25)
    for n in (2, 3, 4, 5):
        tables = [CountTable(n, tuple(rng.choice((A, B)) for _ in range((n + 1) * (n + 2) // 2)))
                  for _ in range(40)]
        for _ in range(40):
            lengths = [rng.randint(0, n + 1 - na) for na in range(n + 1)]
            tables.append(CountTable.from_function(n, lambda p: A if p.nb < lengths[p.na] else B))
        for table in tables:
            matches = rules_matching_table(table)
            assert len(matches) == (find_manipulation(table) is None and is_onto(table))
            assert all(lp_to_table(rule) == table for rule in matches)


def reference_proper_to_lp(seq, table):
    """Per-default row scans: r from the fewest votes that leave the default,
    then the least b-support (default b) or a-support (default a) per level."""
    n = seq.n
    default = table.outcome(0, 0)
    r = n + 1 - min(
        na + nb
        for na in range(n + 1)
        for nb in range(n + 1 - na)
        if table.outcome(na, nb) is not default
    )
    thresholds = []
    for i in range(1, r + 1):
        votes = n - r + i
        if default is B:
            y_prime = next(nb for nb in range(votes + 1) if table.outcome(votes - nb, nb) is B)
            thresholds.append((n - r + 1) - y_prime + i)
        else:
            thresholds.append(next(na for na in range(votes + 1) if table.outcome(na, votes - na) is A))
    return LPRule(n=n, default=default, r=r, thresholds=tuple(thresholds))


def reference_lp_eval(rule, na, nb):
    """Two-branch evaluation: x on the a side, the y' rewrite on the b side."""
    idle = rule.n - na - nb
    if idle >= rule.r:
        return rule.default
    i = rule.r - idle
    y = rule.thresholds[i - 1]
    if rule.default is A:
        return A if na >= y else B
    return B if nb >= (rule.n - rule.r + 1) - y + i else A


def test_proper_to_lp_matches_row_scans():
    for n in range(1, 9):
        for seq, table in enumerate_all(n):
            if is_onto(table):
                assert proper_to_lp(seq) == reference_proper_to_lp(seq, table)


def test_lp_eval_matches_two_branch_evaluation():
    for n in range(1, 8):
        for default in (B, A):
            for rule in all_rules(n, default):
                for na in range(n + 1):
                    for nb in range(n + 1 - na):
                        expected = reference_lp_eval(rule, na, nb)
                        assert lp_eval(rule, CountProfile(na, nb, n)) is expected

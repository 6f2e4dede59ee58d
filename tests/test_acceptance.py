"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; `--runslow` adds the long-running exhaustive search for n=13..15.
"""

import time

import pytest

from quotamaj import (
    Alternative,
    CountProfile,
    CountTable,
    QuotaSeq,
    all_count_profiles,
    all_rules,
    canonicalize,
    count_table_size,
    dual,
    enumerate_all,
    evaluate,
    evaluate_strict_quota,
    expand_to_full,
    extract,
    find_manipulation,
    find_manipulation_full,
    interleave,
    is_proper,
    length,
    lp_to_table,
    proper_to_lp,
    proper_to_subset,
    psi_eval,
    subset_to_proper,
    to_table,
)

from certificates import exhaustive_sp_family, is_minimal, rules_matching_table
from helpers import all_valid_r_tuples, worked_table

A, B = Alternative.A, Alternative.B


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_counting():
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        family = enumerate_all(n)
        if len(family) != 2 ** (n + 1):
            ok = False
            break
        if len({table.outcomes for _, table in family}) != len(family):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report("1 (2^(n+1) distinct rules, n=1..8)", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def _family_is_exhaustive(n):
    found = [table.mask for table in exhaustive_sp_family(n)]
    return len(found) == 2 ** (n + 1) and found == sorted(t.mask for _, t in enumerate_all(n))


def test_criterion_2_converse_by_exhaustion():
    start = time.perf_counter()
    ok = all(map(_family_is_exhaustive, range(1, 13)))
    elapsed = time.perf_counter() - start
    report("2 (exhaustive search = family, n=1..12)", ok and elapsed < 10.0, f"{elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_2_converse_by_exhaustion_n13_to_15():
    start = time.perf_counter()
    ok = all(map(_family_is_exhaustive, range(13, 16)))
    elapsed = time.perf_counter() - start
    report("2-slow (exhaustive search = family, n=13..15)", ok and elapsed < 600.0, f"{elapsed:.1f}s")


def test_criterion_3_worked_example_equivalences():
    base = to_table(QuotaSeq(11, (5, 2, 12)))
    ok = (
        to_table(QuotaSeq(11, (5, 2, 7, 12))) == base
        and to_table(QuotaSeq(11, (5, 2, 9, 12))) == base
        and canonicalize((5, 2, 7, 12), 11).quotas == (5, 2, 12)
        and canonicalize((5, 2, 9, 12), 11).quotas == (5, 2, 12)
    )
    report("3 (worked-example defining sequences)", ok)


def test_criterion_4_extraction_trace():
    levels = extract(worked_table())
    ok = (
        levels.default is B
        and levels.pairs == ((0, 5), (1, 4), (2, 3), (3, 2))
        and interleave(levels).quotas == (5, 5, 5, 4, 5, 3, 5, 2, 12)
        and canonicalize(interleave(levels).quotas, 11).quotas == (5, 2, 12)
    )
    report("4 (level extraction trace)", ok)


def test_criterion_5_uniqueness():
    ok = True
    for n in range(1, 9):
        onto_tables = [
            table.outcomes
            for seq, table in enumerate_all(n)
            if 1 <= seq.quotas[0] <= n
        ]
        if len(onto_tables) != 2 ** (n + 1) - 2:
            ok = False
            break
        if len(set(onto_tables)) != len(onto_tables):
            ok = False
            break
    report("5 (proper-to-table injective on onto rules, n<=8)", ok)


def test_criterion_6_minimality():
    ok = True
    for n in range(1, 6):
        for seq, table in enumerate_all(n):
            if not is_minimal(seq):
                ok = False
        for seq in all_valid_r_tuples(n):
            proper = canonicalize(seq.quotas, n)
            if not is_proper(proper):
                ok = False
            if length(proper) > length(seq):
                ok = False
            if not is_proper(seq) and length(proper) >= length(seq):
                ok = False
            if to_table(proper) != to_table(seq):
                ok = False
    report("6 (proper iff minimal, n<=5)", ok)


def test_criterion_7_strict_restriction():
    ok = True
    for n in range(1, 9):
        strict = [CountProfile(na, n - na, n) for na in range(n + 1)]
        for seq in all_valid_r_tuples(n):
            k0 = seq.quotas[0]
            for p in strict:
                if evaluate(seq, p) is not evaluate_strict_quota(k0, p):
                    ok = False
    report("7 (strict profiles reduce to the first quota, n<=8)", ok)


def test_criterion_8_lp_worked_example():
    seq = QuotaSeq(11, (5, 2, 12))
    rule = proper_to_lp(seq)
    ok = (
        rule.default is B
        and rule.r == 10
        and rule.thresholds == (2, 2, 2, 2, 2, 2, 2, 3, 4, 5)
        and lp_to_table(rule) == to_table(seq)
    )
    report("8 (indifference-quota form of the worked rule)", ok)


def test_criterion_8_lp_non_uniqueness():
    # Asks whether a second valid threshold vector gives the same table.  It
    # cannot: the anchored, unit-step form has exactly 2^(n+1) - 2 valid
    # rules, one per onto rule, and their tables are pairwise distinct.
    # Pointwise, every level row of the worked table holds both outcomes,
    # so each threshold is forced.  See README for the argument.
    n = 11
    seq = QuotaSeq(n, (5, 2, 12))
    table = to_table(seq)
    matches = rules_matching_table(table)
    rules = [rule for default in (B, A) for rule in all_rules(n, default)]
    distinct = len({lp_to_table(rule).outcomes for rule in rules})
    worked = proper_to_lp(seq)
    rows_mixed = all(
        {table.outcome(na, votes - na) for na in range(votes + 1)} == {A, B}
        for votes in range(n - worked.r + 1, n + 1)
    )
    report(
        "8 (no second threshold vector, same table)",
        matches == [worked]
        and len(rules) == 2 ** (n + 1) - 2
        and distinct == len(rules)
        and rows_mixed,
        f"{len(matches)} matching rule(s); {len(rules)} rules, "
        f"{distinct} distinct tables",
    )


def test_criterion_9_property_suites():
    start = time.perf_counter()
    ok = True

    # count-level and full-profile strategy-proofness agree on every
    # anonymous table, exhaustively for n <= 4
    for n in range(1, 5):
        size = count_table_size(n)
        for mask in range(2**size):
            table = CountTable(
                n, tuple(A if mask >> i & 1 else B for i in range(size))
            )
            if (find_manipulation(table) is None) != (
                find_manipulation_full(expand_to_full(table)) is None
            ):
                ok = False

    # dual involution over every valid sequence of distinct quotas, n <= 5
    for n in range(1, 6):
        for seq in all_valid_r_tuples(n):
            if dual(dual(seq)) != seq or is_proper(dual(seq)) != is_proper(seq):
                ok = False

    # subset bijection round trip, n <= 10
    for n in range(1, 11):
        for default in (B, A):
            for mask in range(2**n):
                subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                back = proper_to_subset(subset_to_proper(subset, default, n))
                if back != (subset, default):
                    ok = False

    # first-match level evaluation agrees with the interleaved sequence
    for n in range(1, 6):
        for _, table in enumerate_all(n):
            levels = extract(table)
            interleaved = to_table(interleave(levels))
            if any(
                psi_eval(levels, p) is not interleaved.outcome(p.na, p.nb)
                for p in all_count_profiles(n)
            ):
                ok = False

    elapsed = time.perf_counter() - start
    report("9 (oracle soundness link and module properties)", ok and elapsed < 120.0, f"{elapsed:.2f}s")

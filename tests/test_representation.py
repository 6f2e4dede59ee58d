"""The stored a-region mask of CountTable against the per-cell code it replaced.

Each `reference_*` function is the earlier cell-by-cell implementation,
kept here as the definition the mask-based code must reproduce exactly.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotamaj import (
    Alternative,
    CountTable,
    QuotaSeq,
    all_count_profiles,
    all_rules,
    count_table_size,
    enumerate_all,
    lp_eval,
    lp_to_table,
    proper_to_subset,
    subset_to_proper,
    to_table,
)
from quotamaj.cli import main
from quotamaj.engine import _row_thresholds, _staircase
from quotamaj.fileformats import STRUCTURED, TEXT, format_family
from quotamaj.tables import _prefix_rows

from certificates import exhaustive_sp_family

A, B = Alternative.A, Alternative.B


def reference_to_table(seq):
    # outcomes in the all_count_profiles order, each decided by the first
    # quota that one side's support meets
    n = seq.n

    def decide(na, nb):
        for k in seq.quotas:
            if na >= k:
                return A
            if nb >= n + 1 - k:
                return B
        raise AssertionError("unreachable: sequence contains an element of {0, n+1}")

    return tuple(decide(p.na, p.nb) for p in all_count_profiles(n))


def reference_row_thresholds(table):
    n = table.n
    thresholds = []
    for ell in range(n + 1):
        size = n - ell
        row = [table.outcome(j, size - j) for j in range(size + 1)]
        t = next((j for j, outcome in enumerate(row) if outcome is A), size + 1)
        if B in row[t:]:
            raise AssertionError(
                f"row with {ell} indifferent voters is not monotone above a-support {t}"
            )
        thresholds.append(t)
    return tuple(thresholds)


def reference_format_family(n, fmt):
    family = []
    for seq, _ in enumerate_all(n):
        subset, default = proper_to_subset(seq)
        family.append((seq, subset, default, "".join(o.value for o in reference_to_table(seq))))
    if fmt == STRUCTURED:
        return json.dumps(
            {
                "n": n,
                "count": len(family),
                "family": [
                    {
                        "default": default.value,
                        "subset": sorted(subset),
                        "quotas": list(seq.quotas),
                        "table": cells,
                    }
                    for seq, subset, default, cells in family
                ],
            },
            indent=2,
        )
    lines = [f"n={n}", f"count={len(family)}"]
    for seq, subset, default, cells in family:
        subset_txt = ",".join(str(v) for v in sorted(subset)) or "-"
        lines.append(f"{default.value} {subset_txt} {seq} {cells}")
    return "\n".join(lines) + "\n"


def reference_lp_to_table(rule):
    return tuple(lp_eval(rule, p) for p in all_count_profiles(rule.n))


def all_outcome_tuples(n):
    return itertools.product((A, B), repeat=count_table_size(n))


def short_sequences(n):
    # every sequence of up to 4 entries over {0..n+1} that has a terminal,
    # repeats and entries after the terminal included
    for length in range(1, 5):
        for quotas in itertools.product(range(n + 2), repeat=length):
            if 0 in quotas or n + 1 in quotas:
                yield QuotaSeq(n, quotas)


@pytest.mark.parametrize("n", range(1, 7))
def test_to_table_matches_reference_on_every_short_sequence(n):
    checked = 0
    for seq in short_sequences(n):
        assert to_table(seq).outcomes == reference_to_table(seq), seq
        checked += 1
    assert checked > 0


@st.composite
def long_sequences(draw):
    n = draw(st.integers(1, 80))
    body = draw(st.lists(st.integers(0, n + 1), max_size=3 * n))
    terminal = draw(st.sampled_from([0, n + 1]))
    at = draw(st.integers(0, len(body)))
    return QuotaSeq(n, tuple(body[:at]) + (terminal,) + tuple(body[at:]))


@settings(max_examples=150, deadline=None)
@given(long_sequences())
def test_to_table_matches_reference_on_long_sequences(seq):
    assert to_table(seq).outcomes == reference_to_table(seq)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_thresholds_match_reference_on_strategy_proof_tables(n):
    for table in exhaustive_sp_family(n):
        assert _row_thresholds(n, table._staircase()) == reference_row_thresholds(table)


@pytest.mark.parametrize("n", range(1, 11))
def test_row_thresholds_match_reference_on_the_family(n):
    for _, table in enumerate_all(n):
        assert _row_thresholds(n, table._staircase()) == reference_row_thresholds(table)


def has_non_prefix_row(table):
    n = table.n
    return any(
        table.outcome(na, nb) is B and table.outcome(na, nb + 1) is A
        for na in range(n + 1)
        for nb in range(n - na)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_staircase_is_none_exactly_on_tables_with_a_non_prefix_row(n):
    # the strategy-proofness gate of `extract` refuses every such table
    # before its staircase is read
    refused = 0
    for outcomes in all_outcome_tuples(n):
        table = CountTable(n, outcomes)
        lengths = table._staircase()
        if has_non_prefix_row(table):
            assert lengths is None
            refused += 1
        else:
            assert len(lengths) == n + 1
            assert CountTable._from_mask(n, _prefix_rows(n, lengths)) == table
    assert 0 < refused < 2 ** count_table_size(n)


@pytest.mark.parametrize("n", range(1, 12))
def test_family_staircases_rise_strictly_to_n_plus_1(n):
    # the property the pointer walk of `_row_thresholds` rests on
    for seq, table in enumerate_all(n):
        lengths = _staircase(seq)
        assert lengths == table._staircase()
        sums = [na + c for na, c in enumerate(lengths)]
        assert all(x < y or x == y == n + 1 for x, y in zip(sums, sums[1:])), seq


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_table_views_on_every_table(n):
    profiles = all_count_profiles(n)
    masks = set()
    for outcomes in all_outcome_tuples(n):
        table = CountTable(n, outcomes)
        assert table.outcomes == outcomes
        assert table.outcome_string() == "".join(o.value for o in outcomes)
        assert [table.outcome(p.na, p.nb) for p in profiles] == list(outcomes)
        assert list(table.items()) == list(zip(profiles, outcomes))
        assert CountTable.from_mapping(n, {(p.na, p.nb): o for p, o in table.items()}) == table
        masks.add(table.mask)
    assert len(masks) == 2 ** count_table_size(n)


def test_count_table_equality_and_hash_follow_n_and_mask():
    first = to_table(QuotaSeq(3, (2, 4)))
    second = CountTable(3, first.outcomes)
    assert first == second and hash(first) == hash(second)
    assert first != to_table(QuotaSeq(3, (3, 4)))
    # the all-b tables of different societies share mask 0
    assert to_table(QuotaSeq(2, (3,))) != to_table(QuotaSeq(3, (4,)))


def test_count_table_rejects_outcomes_that_are_not_alternatives():
    with pytest.raises(ValueError):
        CountTable(1, (A, "b", B))
    with pytest.raises(ValueError):
        CountTable.from_mapping(1, {(0, 0): A, (0, 1): "b", (1, 0): B})
    with pytest.raises(ValueError, match="not a count profile"):
        CountTable.from_mapping(1, {(0, 0): A, (0, 1): B, (1, 1): B})


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
def test_format_family_is_byte_identical_to_reference(n, fmt):
    assert format_family(enumerate_all(n), n, fmt) == reference_format_family(n, fmt)


@pytest.mark.parametrize(
    "n", [*range(1, 13), *(pytest.param(n, marks=pytest.mark.slow) for n in (13, 14))]
)
@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
def test_enum_writes_the_reference_family(tmp_path, n, fmt):
    # `enum` writes its rules from the staircases, not through format_family
    out = tmp_path / "family"
    assert main(["enum", "--n", str(n), "--out", str(out), "--format", fmt]) == 0
    assert out.read_bytes() == reference_format_family(n, fmt).encode()


@pytest.mark.parametrize("n", range(1, 9))
def test_lp_to_table_matches_per_profile_evaluation(n):
    for default in (A, B):
        for rule in all_rules(n, default):
            assert lp_to_table(rule).outcomes == reference_lp_to_table(rule), rule


def count_form(subset, default, n, na, nb):
    # the outcome of the rule of `subset` and `default` counted from the subset alone
    if default is B:
        return A if sum(v <= na for v in subset) > sum(v > n - nb for v in subset) else B
    return A if sum(v > n - na for v in subset) >= sum(v <= nb for v in subset) else B


@pytest.mark.parametrize("n", range(1, 9))
def test_count_form_matches_per_profile_evaluation(n):
    profiles = all_count_profiles(n)
    for mask in range(2**n):
        subset = [i + 1 for i in range(n) if mask >> i & 1]
        for default in (A, B):
            expected = reference_to_table(subset_to_proper(subset, default, n))
            assert tuple(count_form(subset, default, n, p.na, p.nb) for p in profiles) == expected

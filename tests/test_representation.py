"""The stored a-region mask of CountTable against the per-cell code it replaced.

Each `reference_*` function, here or in tests/helpers.py, is the earlier
cell-by-cell implementation, kept as the definition the mask-based code
must reproduce exactly.
"""

import random

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
    find_manipulation,
    lp_eval,
    lp_to_table,
    represent,
    subset_to_proper,
    to_table,
)
from quotamaj.cli import main
from quotamaj.engine import _decide, _row_thresholds, _staircase
from quotamaj.fileformats import STRUCTURED, TEXT, format_family
from quotamaj.tables import _prefix_rows

from certificates import exhaustive_sp_family
from helpers import (
    every_count_table,
    reference_family_file,
    reference_row_thresholds,
    reference_to_table,
    reference_up_closure,
    short_sequences,
)

A, B = Alternative.A, Alternative.B


def reference_lp_to_table(rule):
    return tuple(lp_eval(rule, p) for p in all_count_profiles(rule.n))


@pytest.mark.parametrize("n", range(1, 7))
def test_to_table_matches_reference_on_every_short_sequence(n):
    checked = 0
    for raw in short_sequences(n):
        if 0 in raw or n + 1 in raw:
            seq = QuotaSeq(n, raw)
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


@pytest.mark.parametrize("n", [1000, 3000])
def test_staircase_agrees_with_decide_beyond_the_reference(n):
    # each row is a prefix, so its last a cell and its first b cell pin it
    rng = random.Random(n)
    for _ in range(10):
        body = [rng.randint(0, n + 1) for _ in range(rng.randint(0, 79))]
        body.insert(rng.randint(0, len(body)), rng.choice([0, n + 1]))
        seq = QuotaSeq(n, tuple(body))
        for na, c in enumerate(_staircase(seq)):
            assert 0 <= c <= n + 1 - na, (seq, na)
            if c > 0:
                assert _decide(seq.quotas, n, na, c - 1)[1] is A, (seq, na)
            if c <= n - na:
                assert _decide(seq.quotas, n, na, c)[1] is B, (seq, na)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_thresholds_match_reference_on_strategy_proof_tables(n):
    for table in exhaustive_sp_family(n):
        assert _row_thresholds(n, _staircase(represent(table))) == reference_row_thresholds(n, table.outcome)


@pytest.mark.parametrize("n", range(1, 11))
def test_row_thresholds_match_reference_on_the_family(n):
    for seq, table in enumerate_all(n):
        assert _row_thresholds(n, _staircase(seq)) == reference_row_thresholds(n, table.outcome)


def paired_outside_in(values):
    """(s_i, s_(k+1-i)) for the sorted values s_1 < ... < s_k, i up to ceil(k/2)."""
    s = sorted(values)
    return [(s[i], s[-1 - i]) for i in range((len(s) + 1) // 2)]


@pytest.mark.parametrize("n", range(1, 13))
def test_family_corners_are_the_sequence_entries_paired_outside_in(n):
    for seq, table in enumerate_all(n):
        corners = table._corners()
        pairs = paired_outside_in(k for k in seq.quotas if k != n + 1)
        assert corners == [(lo, n - hi) for lo, hi in pairs], seq
        if n <= 10:
            assert reference_up_closure(n, corners) == table.outcomes, seq


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_strategy_proof_table_is_the_up_closure_of_its_corners(n):
    passed = 0
    for outcomes, table in every_count_table(n):
        if find_manipulation(table) is None:
            assert reference_up_closure(n, table._corners()) == outcomes
            passed += 1
    assert passed == 2 ** (n + 1)


@pytest.mark.parametrize("n", range(1, 12))
def test_family_staircases_rise_strictly_to_n_plus_1(n):
    # the property the pointer walk of `_row_thresholds` rests on
    for seq, table in enumerate_all(n):
        lengths = _staircase(seq)
        assert _prefix_rows(n, lengths) == table.mask
        sums = [na + c for na, c in enumerate(lengths)]
        assert all(x < y or x == y == n + 1 for x, y in zip(sums, sums[1:])), seq


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_table_views_on_every_table(n):
    profiles = all_count_profiles(n)
    masks = set()
    for outcomes, table in every_count_table(n):
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


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
def test_format_family_is_byte_identical_to_reference(n, fmt):
    family = enumerate_all(n)
    assert format_family(family, n, fmt) == reference_family_file([seq for seq, _ in family], n, fmt)


@pytest.mark.parametrize(
    "n", [*range(1, 13), *(pytest.param(n, marks=pytest.mark.slow) for n in (13, 14))]
)
@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
def test_enum_writes_the_reference_family(tmp_path, n, fmt):
    # `enum` writes its rules from the staircases, not through format_family
    out = tmp_path / "family"
    assert main(["enum", "--n", str(n), "--out", str(out), "--format", fmt]) == 0
    assert out.read_bytes() == reference_family_file([seq for seq, _ in enumerate_all(n)], n, fmt).encode()


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

"""The one a/b mirror, the one terminal scan and the one escape-side walk
against the code they replaced.

Each `reference_*` function, here or in tests/helpers.py, is an earlier
implementation that wrote the mirror, the search for the first terminal
or the running-range walk out by hand, kept as the definition the shared
helpers must reproduce.  `check_sequence_walks` holds every walk over a
sequence to its one reference.
"""

import itertools

import pytest
from hypothesis import given

from quotamaj import (
    Alternative,
    CountProfile,
    LKSequence,
    QuotaSeq,
    all_count_profiles,
    all_rules,
    canonicalize,
    covered_b,
    delete_dominated,
    dual,
    enumerate_all,
    extract,
    interleave,
    is_proper,
    is_valid_r_tuple,
    proper_to_lp,
    proper_to_subset,
    to_table,
    truncate,
)
from quotamaj.core import _mirror
from quotamaj.enumeration import _subset_of
from quotamaj.extraction import _check_pair

from helpers import (
    delete_dominated_leftmost,
    padded_sequences,
    reference_canonicalize,
    reference_truncate,
    short_sequences,
)

A, B = Alternative.A, Alternative.B


# --- the a/b mirror -------------------------------------------------------


def reference_margin(n, ell, k):
    return n - ell - k + 1


def reference_lk_errors(n, default, pairs):
    """The LKSequence order checks that fail, as messages in checking order;
    empty exactly when the levels are valid.  Each pair must be in range."""
    errors = []
    if pairs and pairs[0][0] != 0:
        errors.append("the first level must have no indifferent voters")
    ells = [ell for ell, _ in pairs]
    if any(b <= a for a, b in zip(ells, ells[1:])):
        errors.append("indifferent counts must strictly increase")
    ks = [k for _, k in pairs]
    sums = [ell + k for ell, k in pairs]
    if default is B:
        if any(b >= a for a, b in zip(ks, ks[1:])):
            errors.append("quotas must strictly decrease when the default is b")
        if any(b < a for a, b in zip(sums, sums[1:])):
            errors.append("ell + k must not decrease when the default is b")
    else:
        if any(b > a for a, b in zip(ks, ks[1:])):
            errors.append("quotas must not increase when the default is a")
        if any(b <= a for a, b in zip(sums, sums[1:])):
            errors.append("ell + k must strictly increase when the default is a")
    return errors


def reference_interleave(seq):
    quotas = []
    if seq.default is B:
        for ell, k in seq.pairs:
            quotas += [ell + k, k]
        quotas.append(seq.n + 1)
    else:
        for ell, k in seq.pairs:
            quotas += [k, ell + k]
        quotas.append(0)
    return QuotaSeq(seq.n, tuple(quotas))


def reference_covered_b(pair, profile):
    ell, k = pair
    _check_pair(profile.n, ell, k)
    m = reference_margin(profile.n, ell, k)
    return profile.na < k and profile.nb >= m


def in_range_pairs(n):
    return [(ell, k) for ell in range(n) for k in range(1, n - ell + 1)]


def level_candidates(n, max_pairs=3):
    pairs = in_range_pairs(n)
    for size in range(max_pairs + 1):
        yield from itertools.product(pairs, repeat=size)


@pytest.mark.parametrize("n", range(1, 7))
def test_lk_validation_matches_reference_for_both_defaults(n):
    for pairs in level_candidates(n):
        for default in (A, B):
            errors = reference_lk_errors(n, default, pairs)
            try:
                levels = LKSequence(n, default, pairs)
            except ValueError as err:
                assert errors, (default, pairs)
                # every message names a check the input really fails
                assert str(err) in errors, (default, pairs, str(err))
                if len(errors) == 1 or errors[0] in (
                    "the first level must have no indifferent voters",
                    "indifferent counts must strictly increase",
                ):
                    assert str(err) == errors[0]
                continue
            assert not errors, (default, pairs)
            assert interleave(levels) == reference_interleave(levels)
            for i, (ell, k) in enumerate(pairs):
                assert levels.margin(i) == reference_margin(n, ell, k)


def test_default_a_messages_name_default_a_quantities():
    with pytest.raises(ValueError, match="^quotas must not increase when the default is a$"):
        LKSequence(11, A, ((0, 2), (1, 3)))
    with pytest.raises(ValueError, match="^ell \\+ k must strictly increase when the default is a$"):
        LKSequence(11, A, ((0, 5), (1, 4)))
    with pytest.raises(ValueError, match="^quotas must strictly decrease when the default is b$"):
        LKSequence(11, B, ((0, 5), (1, 5)))
    with pytest.raises(ValueError, match="^ell \\+ k must not decrease when the default is b$"):
        LKSequence(11, B, ((0, 5), (1, 3)))


@pytest.mark.parametrize("n", range(1, 7))
def test_covered_b_matches_reference(n):
    for pair in in_range_pairs(n):
        for profile in all_count_profiles(n):
            assert covered_b(pair, profile) == reference_covered_b(pair, profile), (pair, profile)


def test_covered_b_names_the_pair_it_was_given():
    profile = CountProfile(1, 1, 4)
    for pair in [(0, 5), (2, 0), (4, 1), (-1, 2)]:
        with pytest.raises(ValueError) as new:
            covered_b(pair, profile)
        with pytest.raises(ValueError) as old:
            reference_covered_b(pair, profile)
        assert str(new.value) == str(old.value)


def test_mirror_is_an_involution_that_swaps_quota_and_margin():
    for size in range(0, 12):
        for k in range(0, size + 2):
            assert _mirror(size, _mirror(size, k)) == k
            assert _mirror(size, k) == reference_margin(size, 0, k)


# --- mirror laws on the whole family ----------------------------------------


def family_up_to(n_max):
    for n in range(1, n_max + 1):
        for seq, table in enumerate_all(n):
            yield n, seq, table


def test_dual_table_is_the_transposed_complement():
    for n, seq, table in family_up_to(8):
        mirrored = to_table(dual(seq))
        for p in all_count_profiles(n):
            assert mirrored.outcome(p.na, p.nb) is table.outcome(p.nb, p.na).other, (seq, p)


def test_extract_of_the_dual_table_gives_the_mirrored_levels():
    for n, seq, table in family_up_to(8):
        levels = extract(table)
        mirrored = extract(to_table(dual(seq)))
        assert mirrored.default is levels.default.other
        assert mirrored.pairs == tuple((ell, _mirror(n - ell, k)) for ell, k in levels.pairs)


def test_indifference_form_of_the_dual_has_the_mirrored_thresholds():
    for n, seq, _ in family_up_to(8):
        if not 1 <= seq.quotas[0] <= n:
            continue  # constant rules have no indifference-quota form
        rule, mirrored = proper_to_lp(seq), proper_to_lp(dual(seq))
        assert (mirrored.n, mirrored.r, mirrored.default) == (n, rule.r, rule.default.other)
        expected = tuple(_mirror(n - rule.r + i, t) for i, t in enumerate(rule.thresholds, start=1))
        assert mirrored.thresholds == expected
        if rule.default is B:
            assert rule.b_thresholds == expected


def reference_proper_to_subset(seq):
    if seq.quotas[-1] == seq.n + 1:
        return frozenset(seq.quotas[:-1]), B
    return frozenset(dual(seq).quotas[:-1]), A


def test_subset_of_matches_the_dual_round_trip():
    for _, seq, _ in family_up_to(8):
        assert _subset_of(seq) == proper_to_subset(seq) == reference_proper_to_subset(seq)


# --- the indifference-quota rules -------------------------------------------


def reference_all_rules(n, default):
    for r in range(1, n + 1):
        base = 1 if default is A else n - r + 1

        def extend(prefix):
            i = len(prefix)
            if i == r:
                yield prefix
                return
            if i == 0:
                choices = [base]
            else:
                choices = [v for v in (prefix[-1], prefix[-1] + 1) if v <= base + i]
            for v in choices:
                yield from extend(prefix + (v,))

        for vector in extend(()):
            yield r, vector


@pytest.mark.parametrize("n", range(1, 10))
def test_all_rules_matches_the_recursion(n):
    for default in (A, B):
        rules = [(rule.r, rule.thresholds) for rule in all_rules(n, default)]
        assert rules == list(reference_all_rules(n, default))
        assert all(rule.default is default and rule.n == n for rule in all_rules(n, default))


# --- where a sequence decides ----------------------------------------------


def reference_is_valid_r_tuple(seq):
    q = seq.quotas
    if len(set(q)) != len(q):
        return False
    if q[-1] not in (0, seq.n + 1):
        return False
    return all(1 <= v <= seq.n for v in q[:-1])


def reference_is_proper(seq):
    q = seq.quotas
    if not reference_is_valid_r_tuple(seq):
        return False
    lo = hi = q[0]
    prev_side = 0
    for v in q[1:]:
        if v > hi:
            side, hi = 1, v
        elif v < lo:
            side, lo = -1, v
        else:
            return False
        if side == prev_side:
            return False
        prev_side = side
    return True


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def check_sequence_walks(raw, n):
    """Each walk over a sequence against its one reference, refusals included."""
    assert outcome_or_error(truncate, raw, n) == outcome_or_error(reference_truncate, raw, n), raw
    try:
        seq = QuotaSeq(n, raw)
    except ValueError:
        return
    assert is_valid_r_tuple(seq) == reference_is_valid_r_tuple(seq), raw
    assert is_proper(seq) == reference_is_proper(seq), raw
    for s in (seq, reference_truncate(raw, n)):
        assert outcome_or_error(delete_dominated, s) == outcome_or_error(delete_dominated_leftmost, s), raw


@pytest.mark.parametrize("n", range(1, 7))
def test_walks_match_reference_on_every_short_sequence(n):
    # canonicalize on the padded sequences: test_canonical
    for raw in short_sequences(n):
        check_sequence_walks(raw, n)
        assert outcome_or_error(canonicalize, raw, n) == outcome_or_error(reference_canonicalize, raw, n), raw


@given(padded_sequences())
def test_walks_match_reference_with_padding_after_the_terminal(raw_n):
    raw, n = raw_n
    check_sequence_walks(raw, n)

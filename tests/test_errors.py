"""Each refusal of the library and of the tests' certificates, with the exact
exception class and message it raised when it was recorded.

A row is a zero-argument call, the class and the message.  A reworded
message, a check that moved so that another one refuses the input first,
or a subclass raised in place of the class, fails the row by its name.
Refusals that a reference test already compares message for message, or
that a command line of `tests/test_cli.py` prints, are not repeated here.
"""

import pytest

import quotamaj
from quotamaj import (
    Alternative,
    CountProfile,
    CountTable,
    FullTable,
    LKSequence,
    LPRule,
    Preference,
    QuotaSeq,
    SearchBudgetExceeded,
    all_count_profiles,
    covered_a,
    covered_b,
    delete_dominated,
    enumerate_all,
    evaluate,
    evaluate_strict_quota,
    lp_eval,
    profile_index,
    proper_to_lp,
    proper_to_subset,
    truncate,
)
from quotamaj.core import parse_sequence
from quotamaj.enumeration import _family_staircases
from quotamaj.fileformats import parse_table

from certificates import exhaustive_sp_family, is_minimal
from helpers import majority3
from test_lp import WORKED_Y, worked_rule

A, B = Alternative.A, Alternative.B
NOT_AN_ALTERNATIVE = "outcome must be an Alternative, got 'b'"

RECORDED_ERRORS = {
    "all-count-profiles-n0": (lambda: all_count_profiles(0), ValueError, "society size must be at least 1, got 0"),
    "count-profile-negative": (lambda: CountProfile(-1, 0, 3), ValueError, "negative support count in (-1, 0)"),
    "count-profile-n0": (lambda: CountProfile(0, 0, 0), ValueError, "society size must be at least 1, got 0"),
    "quota-seq-over-n": (lambda: QuotaSeq(11, (13,)), ValueError, "quota 13 outside [0, 12] for society size 11"),
    "quota-seq-empty": (lambda: QuotaSeq(11, ()), ValueError, "quota sequence must be nonempty"),
    "count-table-short": (lambda: CountTable(2, (A,)), ValueError, "table for n=2 needs 6 entries, got 1"),
    "count-table-outcome-not-alternative": (lambda: CountTable(1, (A, "b", B)), ValueError, NOT_AN_ALTERNATIVE),
    "count-table-outcome-off-grid": (
        lambda: majority3().outcome(3, 1), ValueError, "(3, 1) is not a count profile for n=3",
    ),
    "count-table-partial-mapping": (
        lambda: CountTable.from_mapping(2, {(0, 0): A}), ValueError, "table for n=2 needs 6 entries, got 1",
    ),
    "count-table-mapping-outcome-not-alternative": (
        lambda: CountTable.from_mapping(1, {(0, 0): A, (0, 1): "b", (1, 0): B}), ValueError, NOT_AN_ALTERNATIVE,
    ),
    "count-table-mapping-not-a-profile": (
        lambda: CountTable.from_mapping(1, {(0, 0): A, (0, 1): B, (1, 1): B}),
        ValueError, "table entry (1, 1) is not a count profile for n=1",
    ),
    "full-table-8-outcomes-n2": (lambda: FullTable(2, (A,) * 8), ValueError, "table for n=2 needs 3**2 entries, got 8"),
    "full-table-4-outcomes-n1": (lambda: FullTable(1, (A,) * 4), ValueError, "table for n=1 needs 3**1 entries, got 4"),
    "full-table-mapping-n1000000": (
        lambda: FullTable.from_mapping(1_000_000, dict.fromkeys(range(9), A)),
        ValueError, "table for n=1000000 needs 3**1000000 entries, got 9",
    ),
    # three keys for n=1, so only the missing profile is wrong
    "full-table-missing-profile": (
        lambda: FullTable.from_mapping(1, dict.fromkeys([(Preference.A,), (Preference.B,), ("i",)], A)),
        ValueError, "table is missing profile (<Preference.INDIFFERENT: 'i'>,)",
    ),
    "full-table-outcome-short-profile": (
        lambda: FullTable(2, (A,) * 9).outcome((Preference.A,)), ValueError, "profile length 1 does not match n=2",
    ),
    "profile-index-other-n": (
        lambda: profile_index(QuotaSeq(11, (5, 2, 12)), CountProfile(1, 1, 5)),
        ValueError, "society size mismatch: sequence has n=11, profile has n=5",
    ),
    "evaluate-other-n": (
        lambda: evaluate(QuotaSeq(11, (5, 2, 12)), CountProfile(1, 1, 5)),
        ValueError, "society size mismatch: sequence has n=11, profile has n=5",
    ),
    "evaluate-strict-quota-indifferent": (
        lambda: evaluate_strict_quota(5, CountProfile(4, 6, 11)),
        ValueError, "profile (4, 6) has indifferent voters; the single-quota rule is defined on strict profiles only",
    ),
    "evaluate-strict-quota-over-n": (
        lambda: evaluate_strict_quota(13, CountProfile(5, 6, 11)),
        ValueError, "quota 13 outside [0, 12] for society size 11",
    ),
    "truncate-no-terminal": (
        lambda: truncate((5, 2, 7), 11),
        ValueError, "quota sequence needs an element in {0, n+1}; otherwise some profiles are never decided",
    ),
    "truncate-over-n": (lambda: truncate((5, 13), 11), ValueError, "quota 13 outside [0, 12] for society size 11"),
    "truncate-empty": (lambda: truncate((), 11), ValueError, "quota sequence must be nonempty"),
    "delete-dominated-untruncated": (
        lambda: delete_dominated(QuotaSeq(11, (5, 0, 12))),
        ValueError, "sequence must be truncated at its first element of {0, n+1}",
    ),
    "proper-to-subset-not-proper": (
        lambda: proper_to_subset(QuotaSeq(11, (5, 2, 7, 12))), ValueError, "(5,2,7,12) is not proper",
    ),
    "enumerate-all-n0": (lambda: enumerate_all(0), ValueError, "society size must be at least 1, got 0"),
    "enumerate-all-n20": (
        lambda: enumerate_all(20), SearchBudgetExceeded, "enumerating n=20 yields 2**21 rules, budget is 65536",
    ),
    # the budget of 2**16 rules refuses n = 16 from n alone
    "family-staircases-n16": (
        lambda: _family_staircases(16, [list(range(18 - na)) for na in range(17)]),
        SearchBudgetExceeded, "enumerating n=16 yields 2**17 rules, budget is 65536",
    ),
    "covered-a-level-over-n": (
        lambda: covered_a((11, 1), CountProfile(0, 0, 11)), ValueError, "indifferent count 11 outside [0, 10]",
    ),
    "covered-a-quota-0": (
        lambda: covered_a((0, 0), CountProfile(0, 0, 11)),
        ValueError, "quota 0 outside [1, 11] for indifferent count 0",
    ),
    "covered-b-quota-over-n": (
        lambda: covered_b((1, 11), CountProfile(0, 0, 11)),
        ValueError, "quota 11 outside [1, 10] for indifferent count 1",
    ),
    "lk-first-level-not-strict": (
        lambda: LKSequence(11, B, ((1, 4),)), ValueError, "the first level must have no indifferent voters",
    ),
    "lk-levels-not-increasing": (
        lambda: LKSequence(11, B, ((0, 5), (0, 4))), ValueError, "indifferent counts must strictly increase",
    ),
    # ell + k drops from 5 to 4
    "lk-sum-drops-default-b": (
        lambda: LKSequence(11, B, ((0, 5), (3, 1))), ValueError, "ell + k must not decrease when the default is b",
    ),
    "lp-rule-too-few-thresholds": (
        lambda: LPRule(n=11, default=B, r=10, thresholds=WORKED_Y[:-1]), ValueError, "need 10 thresholds, got 9",
    ),
    "lp-rule-r-over-n": (
        lambda: LPRule(n=11, default=B, r=12, thresholds=WORKED_Y + (6, 6)),
        ValueError, "indifference quota 12 outside [1, 11]",
    ),
    "lp-rule-first-threshold": (
        lambda: LPRule(n=11, default=B, r=10, thresholds=(3,) + WORKED_Y[1:]),
        ValueError, "first threshold must be 2, got 3",
    ),
    "lp-rule-first-threshold-default-a": (
        lambda: LPRule(n=3, default=A, r=2, thresholds=(2, 2)), ValueError, "first threshold must be 1, got 2",
    ),
    "lp-rule-step-over-one": (
        lambda: LPRule(n=11, default=B, r=10, thresholds=(2, 2, 2, 2, 2, 2, 2, 4, 4, 5)),
        ValueError, "thresholds may grow by at most one per level",
    ),
    "lp-rule-threshold-over-level": (
        lambda: LPRule(n=3, default=A, r=3, thresholds=(1, 3, 3)),
        ValueError, "thresholds may grow by at most one per level",
    ),
    "lp-rule-b-thresholds-default-a": (
        lambda: LPRule(n=3, default=A, r=3, thresholds=(1, 1, 2)).b_thresholds,
        ValueError, "b-side thresholds exist only for default-b rules",
    ),
    "lp-eval-other-n": (
        lambda: lp_eval(worked_rule(), CountProfile(1, 1, 5)),
        ValueError, "society size mismatch: rule has n=11, profile has n=5",
    ),
    "proper-to-lp-not-proper": (
        lambda: proper_to_lp(QuotaSeq(11, (5, 2, 7, 12))), ValueError, "(5,2,7,12) is not proper",
    ),
    "parse-sequence-no-quota-line": (
        lambda: parse_sequence("n=11\n"), ValueError, "sequence file needs a header line and one quota line",
    ),
    "parse-sequence-bad-quota": (
        lambda: parse_sequence("n=11\nfive\n"), ValueError,
        "quota list must be a comma-separated list of integers, got 'five'",
    ),
    "quotamaj-unknown-name": (
        lambda: quotamaj.no_such_name, AttributeError, "module 'quotamaj' has no attribute 'no_such_name'",
    ),
    "is-minimal-repeated-quota": (
        lambda: is_minimal(QuotaSeq(11, (5, 5, 12))),
        ValueError, "(5,5,12) is not a sequence of distinct quotas ending at 0 or n+1",
    ),
    "is-minimal-budget": (
        lambda: is_minimal(QuotaSeq(11, (6, 5, 7, 4, 8, 3, 9, 2, 10, 1, 11, 12))),
        SearchBudgetExceeded, "minimality search needs 137176624 candidates, budget is 200000",
    ),
    "exhaustive-sp-family-n16": (
        lambda: exhaustive_sp_family(16),
        SearchBudgetExceeded, "exhaustive table search for n=16 would build 2**17 staircases, budget is 2**16",
    ),
    "exhaustive-sp-family-n0": (
        lambda: exhaustive_sp_family(0), ValueError, "society size must be at least 1, got 0",
    ),
    "exhaustive-sp-family-n-1": (
        lambda: exhaustive_sp_family(-1), ValueError, "society size must be at least 1, got -1",
    ),
}


@pytest.mark.parametrize("name", list(RECORDED_ERRORS))
def test_each_call_raises_what_it_raised_before(name):
    call, cls, message = RECORDED_ERRORS[name]
    with pytest.raises(cls) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (cls, message)


def test_every_count_table_builder_words_a_wrong_size_alike():
    # the outcome tuple, the mapping and the file reader share `tables._check_count_size`
    messages = set()
    for call in (
        lambda: CountTable(2, (A,)),
        lambda: CountTable.from_mapping(2, {(0, 0): A}),
        lambda: parse_table("n=2\n0 0 a\n"),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        messages.add(str(raised.value))
    assert messages == {"table for n=2 needs 6 entries, got 1"}

"""Anonymous, strategy-proof binary social choice with indifference.

Evaluate quota-sequence rules, reduce defining sequences to their unique
proper form, enumerate the 2**(n+1) rule family, recover the sequence
from a raw truth table, convert to and from indifference-quota rules, and
verify every claim with brute-force oracles.
"""

from .canonical import canonicalize, delete_dominated, is_minimal, truncate
from .core import (
    Alternative,
    CountProfile,
    CountTable,
    FullProfile,
    FullTable,
    Preference,
    QuotaSeq,
    SearchBudgetExceeded,
    all_count_profiles,
    all_full_profiles,
    count_of,
    count_table_size,
)
from .engine import (
    dual,
    evaluate,
    evaluate_strict_quota,
    is_proper,
    is_valid_r_tuple,
    length,
    profile_index,
    to_table,
)
from .enumeration import enumerate_all, proper_to_subset, subset_to_proper
from .extraction import (
    LKSequence,
    NotStrategyProof,
    covered_a,
    covered_b,
    extract,
    interleave,
    psi_eval,
    represent,
)
from .lp import LPRule, all_rules, lp_eval, lp_to_proper, lp_to_table, proper_to_lp, rules_matching_table
from .oracle import (
    CountManipulation,
    FullManipulation,
    check_anonymous,
    check_strategy_proof,
    check_strategy_proof_full,
    exhaustive_sp_family,
    expand_to_full,
    find_manipulation,
    find_manipulation_full,
    is_onto,
    reduce_to_counts,
    tables_equal,
)

__version__ = "0.1.0"

__all__ = [
    "Alternative",
    "CountManipulation",
    "CountProfile",
    "CountTable",
    "FullManipulation",
    "FullProfile",
    "FullTable",
    "LKSequence",
    "LPRule",
    "NotStrategyProof",
    "Preference",
    "QuotaSeq",
    "SearchBudgetExceeded",
    "all_count_profiles",
    "all_full_profiles",
    "all_rules",
    "canonicalize",
    "check_anonymous",
    "check_strategy_proof",
    "check_strategy_proof_full",
    "count_of",
    "count_table_size",
    "covered_a",
    "covered_b",
    "delete_dominated",
    "dual",
    "enumerate_all",
    "evaluate",
    "evaluate_strict_quota",
    "exhaustive_sp_family",
    "expand_to_full",
    "extract",
    "find_manipulation",
    "find_manipulation_full",
    "interleave",
    "is_minimal",
    "is_onto",
    "is_proper",
    "is_valid_r_tuple",
    "length",
    "lp_eval",
    "lp_to_proper",
    "lp_to_table",
    "profile_index",
    "proper_to_lp",
    "proper_to_subset",
    "psi_eval",
    "reduce_to_counts",
    "represent",
    "rules_matching_table",
    "subset_to_proper",
    "tables_equal",
    "to_table",
    "truncate",
]

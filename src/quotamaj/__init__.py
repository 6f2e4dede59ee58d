"""Anonymous, strategy-proof binary social choice with indifference.

Evaluate quota-sequence rules, reduce defining sequences to their unique
proper form, enumerate the 2**(n+1) rule family, recover the sequence
from a raw truth table, convert to and from indifference-quota rules, and
verify every claim with brute-force oracles.

Importing the package loads none of its modules: each public name is
imported from its module on first use, so a command pays only for the
code it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "canonical": ("canonicalize", "delete_dominated", "is_minimal", "truncate"),
    "core": (
        "Alternative", "CountProfile", "CountTable", "FullProfile", "FullTable", "Preference",
        "QuotaSeq", "SearchBudgetExceeded", "all_count_profiles", "all_full_profiles",
        "count_of", "count_table_size",
    ),
    "engine": (
        "dual", "evaluate", "evaluate_strict_quota", "is_proper", "is_valid_r_tuple", "length",
        "profile_index", "to_table",
    ),
    "enumeration": ("enumerate_all", "proper_to_subset", "subset_to_proper"),
    "extraction": (
        "LKSequence", "NotStrategyProof", "covered_a", "covered_b", "extract", "interleave",
        "psi_eval", "represent",
    ),
    "lp": (
        "LPRule", "all_rules", "lp_eval", "lp_to_proper", "lp_to_table", "proper_to_lp",
        "rules_matching_table",
    ),
    "oracle": (
        "CountManipulation", "FullManipulation", "check_anonymous", "check_strategy_proof",
        "check_strategy_proof_full", "exhaustive_sp_family", "expand_to_full",
        "find_manipulation", "find_manipulation_full", "is_onto", "reduce_to_counts",
        "tables_equal",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))

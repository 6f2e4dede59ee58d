"""Anonymous, strategy-proof binary social choice with indifference.

Evaluate quota-sequence rules, reduce defining sequences to their unique
proper form, enumerate the 2**(n+1) rule family, recover the sequence
from a raw truth table, convert to and from indifference-quota rules, and
verify every claim with brute-force oracles.

Importing the package loads none of its modules: each public name is
imported from its module on first use, so a command loads only the
modules it runs.  That holds module by module: a module loads, and is
compiled, whole, so most of what a command compiles is code that it
does not run.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "canonical": ("canonicalize", "delete_dominated", "truncate"),
    "core": (
        "Alternative", "CountProfile", "QuotaSeq", "SearchBudgetExceeded", "all_count_profiles",
        "count_table_size",
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
    "lp": ("LPRule", "all_rules", "lp_eval", "lp_to_proper", "lp_to_table", "proper_to_lp"),
    "oracle": (
        "CountManipulation", "FullManipulation", "check_anonymous", "expand_to_full",
        "find_manipulation", "find_manipulation_full", "is_onto", "reduce_to_counts",
    ),
    "tables": ("CountTable", "FullProfile", "FullTable", "Preference", "all_full_profiles", "count_of"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own hook, so `python -X importtime` reports
    # the load; it binds the submodule as an attribute of the package
    __import__(f"{__name__}.{module}")
    if module != name:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))

"""The subset bijection and full-family enumeration.

Proper sequences with default b correspond one-to-one with subsets J of
{1, ..., n}: the interior entries are exactly J, arranged by taking the
minimum of what remains for the last interior slot, then the maximum of
what remains, and so on backwards to the front.  The empty set maps to
the constant-b singleton (n+1).  The default-a half of the family is the
elementwise dual of the default-b half.  Counting both defaults gives
2**(n+1) rules, every one with a distinct truth table.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import Alternative, CountTable, QuotaSeq, SearchBudgetExceeded
from .engine import _mirror, dual, is_proper, to_table


def subset_to_proper(subset: Iterable[int], default: Alternative, n: int) -> QuotaSeq:
    """Proper sequence for a subset of {1, ..., n} and a default alternative.

    The default is the outcome when every voter is indifferent.
    """
    members = set(subset)
    for v in members:
        if not 1 <= v <= n:
            raise ValueError(f"subset element {v} outside {{1, ..., {n}}}")
    if default is Alternative.A:
        return dual(subset_to_proper(members, Alternative.B, n))
    if not members:
        return QuotaSeq(n, (n + 1,))
    vals = sorted(members)
    out = [0] * len(vals)
    lo, hi = 0, len(vals) - 1
    take_min = True
    for pos in range(len(vals) - 1, -1, -1):
        if take_min:
            out[pos] = vals[lo]
            lo += 1
        else:
            out[pos] = vals[hi]
            hi -= 1
        take_min = not take_min
    return QuotaSeq(n, tuple(out) + (n + 1,))


def proper_to_subset(seq: QuotaSeq) -> tuple[frozenset[int], Alternative]:
    """Inverse of subset_to_proper; rejects non-proper input."""
    if not is_proper(seq):
        raise ValueError(f"({seq}) is not proper")
    return _subset_of(seq)


def _subset_of(seq: QuotaSeq) -> tuple[frozenset[int], Alternative]:
    """Subset and default of a proper sequence: its interior, through `_mirror` for default a."""
    *interior, terminal = seq.quotas
    if terminal == seq.n + 1:
        return frozenset(interior), Alternative.B
    return frozenset(_mirror(seq.n, k) for k in interior), Alternative.A


def enumerate_all(n: int, max_rules: int = 2**16) -> list[tuple[QuotaSeq, CountTable]]:
    """Every anonymous strategy-proof rule for society size n, with its table.

    Order: default b then default a; within a default, subsets in
    binary-counter order (bit i-1 set means i is in the subset).  Emits
    exactly 2**(n+1) pairs.
    """
    if n < 1:
        raise ValueError(f"society size must be at least 1, got {n}")
    # decided from n alone: 2**(n+1) itself may be too large to build
    if n + 1 >= max_rules.bit_length():
        raise SearchBudgetExceeded(
            f"enumerating n={n} yields 2**{n + 1} rules, budget is {max_rules}"
        )
    family = []
    for default in (Alternative.B, Alternative.A):
        for mask in range(2**n):
            subset = {i + 1 for i in range(n) if mask >> i & 1}
            seq = subset_to_proper(subset, default, n)
            family.append((seq, to_table(seq)))
    return family

"""The subset bijection and full-family enumeration.

Proper sequences with default b correspond one-to-one with subsets J of
{1, ..., n}: the interior entries are exactly J, arranged by taking the
minimum of what remains for the last interior slot, then the maximum of
what remains, and so on backwards to the front.  The empty set maps to
the constant-b singleton (n+1).  The default-a half of the family is the
elementwise dual of the default-b half.  Counting both defaults gives
2**(n+1) rules, every one with a distinct truth table.

Counted, with |J[x, y]| the number of members of J in [x, y], the rule
of J with default b lets a win (na, nb) exactly when
|J[1, na]| > |J[n-nb+1, n]|, and the rule with default a exactly when
|J[n-na+1, n]| >= |J[1, nb]|.  `enumerate_all` builds the family's
tables from this form, row by row, instead of tabulating each sequence.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, repeat

from .core import Alternative, CountTable, QuotaSeq, SearchBudgetExceeded, _row_digits
from .engine import _mirror, is_proper


def subset_to_proper(subset: Iterable[int], default: Alternative, n: int) -> QuotaSeq:
    """Proper sequence for a subset of {1, ..., n} and a default alternative.

    The default is the outcome when every voter is indifferent.
    """
    members = set(subset)
    vals = sorted(members)
    if vals and (vals[0] < 1 or vals[-1] > n):
        # the message names the member that a scan of the set meets first
        v = next(v for v in members if not 1 <= v <= n)
        raise ValueError(f"subset element {v} outside {{1, ..., {n}}}")
    # from the back: the least member, the greatest, the next least, ...
    quotas = vals[:]
    quotas[-1::-2] = vals[: (len(vals) + 1) // 2]
    quotas[-2::-2] = vals[: (len(vals) - 1) // 2 : -1]
    quotas.append(n + 1)
    if default is Alternative.A:
        quotas = [_mirror(n, k) for k in quotas]
    return QuotaSeq(n, tuple(quotas))


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


def _family_masks(n: int, subsets: list[list[int]]) -> tuple[list[int], list[int]]:
    """The a-region masks of the default-b and the default-a rule of each subset.

    Row na of the default-b table of J is the prefix nb < c, where c = 0 when
    J has no member at or below na, and otherwise c = n+1 - max(na, u), u
    the |J[1, na]|-th largest member of J.  Row na of the default-a table
    is nb < the (q+1)-th smallest member of J, q = |J[n-na+1, n]|, or
    the whole row when J has no more than q members.  So a row depends only
    on how many members lie on one side of a cut and on which members lie
    on the other, and each row is built once for all 2**n subsets.
    `subsets` is every subset of {1, ..., n} in binary-counter order, so
    its first 2**k entries are the subsets of {1, ..., k}.
    """
    digits = _row_digits(n)
    sizes = [len(s) for s in subsets]
    rows_b, rows_a = [], []
    for na in range(n + 1):
        m = n - na  # the profiles of row na are nb = 0..m
        lower = sizes[: 2**na]
        # default b: a subset is its members at or below na (counted, in
        # `lower`) and s, its members above na less na; with p members
        # below, the row holds nb < m+1 - (the p-th largest of s, or 0)
        row = []
        pad = [0] * na
        for s in subsets[: 2**m]:
            by_count = [digits[0], *[digits[m + 1 - r] for r in (s[::-1] + pad)[:na]]]
            row += map(by_count.__getitem__, lower)
        rows_b.append(row)
        # default a: a subset is its members at or below m (s) and its
        # members above m (counted, in `lower`); with q members above, the
        # row holds nb < the (q+1)-th smallest of s, or the whole row
        by_count = [
            [digits[s[q] if q < len(s) else m + 1] for s in subsets[: 2**m]] for q in range(na + 1)
        ]
        rows_a.append(list(chain.from_iterable(map(by_count.__getitem__, lower))))
    # most significant row first, as in _prefix_rows
    return tuple(
        list(map(int, map("".join, zip(*reversed(rows))), repeat(2))) for rows in (rows_b, rows_a)
    )


def enumerate_all(n: int, max_rules: int = 2**16) -> list[tuple[QuotaSeq, CountTable]]:
    """Every anonymous strategy-proof rule for society size n, with its table.

    Order: default b then default a; within a default, subsets in
    binary-counter order (bit i-1 set means i is in the subset).  Emits
    exactly 2**(n+1) pairs.  The tables are built row by row from the
    subsets (see _family_masks), not by tabulating each sequence.
    """
    if n < 1:
        raise ValueError(f"society size must be at least 1, got {n}")
    # decided from n alone: 2**(n+1) itself may be too large to build
    if n + 1 >= max_rules.bit_length():
        raise SearchBudgetExceeded(
            f"enumerating n={n} yields 2**{n + 1} rules, budget is {max_rules}"
        )
    subsets = [[]]
    for v in range(1, n + 1):
        subsets += [s + [v] for s in subsets]
    family = []
    for default, masks in zip((Alternative.B, Alternative.A), _family_masks(n, subsets)):
        family += [
            (subset_to_proper(s, default, n), CountTable._from_mask(n, mask))
            for s, mask in zip(subsets, masks)
        ]
    return family

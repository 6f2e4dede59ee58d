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
|J[n-na+1, n]| >= |J[1, nb]|.  From this form `_family_staircases` builds
each rule's row lengths, its staircase; `enumerate_all` makes tables of
them, and `_family_rows` the rows of a family file, with no per-rule
objects.  `_write_family` writes those rows, or the rows that
`fileformats.format_family` makes of (sequence, table) pairs, as:

* text: a `n=<int>` header line and a `count=<rules>` line, then one
  `default subset quotas table` line per rule, e.g. `b 2,5 5,2,12 bb...`:
  the default letter, the subset's members comma-separated (`-` for the
  empty subset), the proper sequence, and the table's outcomes as a/b
  letters in the canonical profile order.
* structured: a JSON object `{"n": ..., "count": ..., "family": [...]}`
  with one `{"default": ..., "subset": [...], "quotas": [...], "table":
  ...}` entry per rule, laid out as `json.dumps(indent=2)` lays it out.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from .core import STRUCTURED, Alternative, CountTable, QuotaSeq, SearchBudgetExceeded, _check_society
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
    quotas = _zigzag(vals)
    quotas.append(n + 1)
    if default is Alternative.A:
        quotas = [_mirror(n, k) for k in quotas]
    return QuotaSeq(n, tuple(quotas))


def _zigzag(vals: list[int]) -> list[int]:
    """Interior of the sorted members' sequence: from the back, the least, the greatest, ..."""
    quotas = vals[:]
    quotas[-1::-2] = vals[: (len(vals) + 1) // 2]
    quotas[-2::-2] = vals[: (len(vals) - 1) // 2 : -1]
    return quotas


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


def _family_staircases(n: int, max_rules: int = 2**16):
    """The subsets of {1, ..., n} in binary-counter order (so the first 2**k
    are those of {1, ..., k}) and, for default b then a, rows[na][i]: the
    c for which a wins (na, nb) under subset i's rule exactly when nb < c.

    For the default-b rule of J, c = 0 when J has no member at or below na,
    and otherwise c = n+1 - max(na, u), u the |J[1, na]|-th largest member
    of J; for default a, c = the (q+1)-th smallest member of J, q =
    |J[n-na+1, n]|, or the whole row when J has no more than q members.  So
    a row depends only on how many members lie on one side of a cut and on
    which lie on the other, and each row is built once for all 2**n subsets.
    """
    _check_society(n)
    # decided from n alone: 2**(n+1) itself may be too large to build
    if n + 1 >= max_rules.bit_length():
        raise SearchBudgetExceeded(
            f"enumerating n={n} yields 2**{n + 1} rules, budget is {max_rules}"
        )
    subsets = [[]]
    for v in range(1, n + 1):
        subsets += [s + [v] for s in subsets]
    sizes = [len(s) for s in subsets]
    rows_b, rows_a = [], []
    for na in range(n + 1):
        m = n - na  # the profiles of row na are nb = 0..m
        lower, upper = sizes[: 2**na], subsets[: 2**m]
        # default b: i is p = |J[1, na]| (`lower`, low bits) and s, the
        # members above na less na (`upper`, high bits); c is 0 for p = 0,
        # else m+1 - (the p-th largest of s, or 0)
        by_count = [[0] * 2**m]
        by_count += [[m + 1 - s[-p] if p <= len(s) else m + 1 for s in upper] for p in range(1, na + 1)]
        rows_b.append(list(chain.from_iterable(zip(*map(by_count.__getitem__, lower)))))
        # default a: i is s, the members at or below m (`upper`, low bits),
        # and q members above m (`lower`, high bits); c is the (q+1)-th
        # smallest of s, or the whole row
        by_count = [[s[q] if q < len(s) else m + 1 for s in upper] for q in range(na + 1)]
        rows_a.append(list(chain.from_iterable(map(by_count.__getitem__, lower))))
    return subsets, (rows_b, rows_a)


def _combine_rows(combine, pieces, rows):
    """Per subset, `combine` over the pieces[na][c] of its row lengths c, in row order."""
    return map(combine, zip(*[map(piece.__getitem__, row) for piece, row in zip(pieces, rows)]))


def enumerate_all(n: int, max_rules: int = 2**16) -> list[tuple[QuotaSeq, CountTable]]:
    """Every anonymous strategy-proof rule for society size n, with its table.

    Order: default b then default a; within a default, subsets in
    binary-counter order (bit i-1 set means i is in the subset).  Emits
    exactly 2**(n+1) pairs.  The tables are built row by row from the
    subsets (see _family_staircases), not by tabulating each sequence.
    """
    subsets, staircases = _family_staircases(n, max_rules)
    mirror = [_mirror(n, k) for k in range(n + 2)]
    sequences_b = [(*_zigzag(s), n + 1) for s in subsets]
    sequences_a = [tuple(map(mirror.__getitem__, q)) for q in sequences_b]
    # row na of a mask holds the profiles nb < c at bits na*(n+2) + nb
    row_masks = [[((1 << c) - 1) << na * (n + 2) for c in range(n + 2)] for na in range(n + 1)]
    family = []
    for sequences, rows in zip((sequences_b, sequences_a), staircases):
        masks = _combine_rows(sum, row_masks, rows)
        family += [
            (QuotaSeq._trusted(n, quotas), CountTable._from_mask(n, mask))
            for quotas, mask in zip(sequences, masks)
        ]
    return family


def _family_rows(n: int):
    """The rules of `enumerate_all(n)` as the rows of `_write_family`:
    (default letter, members, quotas, table letters), straight from the staircases."""
    subsets, staircases = _family_staircases(n)
    decimal = [str(k) for k in range(n + 2)]
    mirrored = [decimal[_mirror(n, k)] for k in range(n + 2)]
    # row na holds n+1-na profiles, the first c of which a wins
    letters = [["a" * c + "b" * (n + 1 - na - c) for c in range(n + 2 - na)] for na in range(n + 1)]
    members = [",".join(map(decimal.__getitem__, s)) for s in subsets]
    sequences = [(*_zigzag(s), n + 1) for s in subsets]
    return (
        (default, subset, ",".join(map(quota_text.__getitem__, quotas)), table)
        for default, quota_text, rows in zip("ba", (decimal, mirrored), staircases)
        for subset, quotas, table in zip(members, sequences, _combine_rows("".join, letters, rows))
    )


def _json_list(decimals: str) -> str:
    # comma-separated ints as json.dumps(indent=2) writes their list inside a family entry
    return "[\n        " + decimals.replace(",", ",\n        ") + "\n      ]" if decimals else "[]"


def _write_family(n: int, rows, fmt: str) -> str:
    """Either family format from rows of strings, as `_family_rows` gives them."""
    if fmt == STRUCTURED:
        # byte for byte what json.dumps(indent=2) writes, without its
        # pure-Python encoder: every field is an int or a string of a/b
        # letters, so nothing needs escaping
        entries = [
            f'    {{\n      "default": "{default}",\n'
            f'      "subset": {_json_list(subset)},\n'
            f'      "quotas": {_json_list(quotas)},\n'
            f'      "table": "{table}"\n    }}'
            for default, subset, quotas, table in rows
        ]
        family_json = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
        return f'{{\n  "n": {n},\n  "count": {len(entries)},\n  "family": {family_json}\n}}'
    lines = [f"{default} {subset or '-'} {quotas} {table}" for default, subset, quotas, table in rows]
    return "\n".join([f"n={n}", f"count={len(lines)}", *lines]) + "\n"

"""The subset bijection and full-family enumeration.

Proper sequences with default b correspond one-to-one with subsets J of
{1, ..., n}: `subset_to_proper` returns `core._arrange` of J, its members
paired from the outside in, so the interior of J is that of
J - {min J, max J} followed by max J, min J, and the empty set maps to the
constant-b singleton (n+1).  With default a it arranges 0 and the mirrors
n+1-j of J, the elementwise dual.  Counting both defaults gives 2**(n+1)
rules, every one with a distinct truth table.

Counted, with S a rule's proper quotas other than n+1 (J for default b, 0
and the mirrors n+1-j of J for default a) and |S[x, y]| the number of them
in [x, y], a wins (na, nb) exactly when |S[0, na]| > |S[n-nb+1, n]|: on J,
|J[1, na]| > |J[n-nb+1, n]| for default b and |J[n-na+1, n]| >= |J[1, nb]|
for default a.  From this form `_family_staircases` builds each row of
every rule's staircase, its row lengths, as a column over the family, and
`_subset_texts` the subsets' members and sequences, each in a few slice
assignments over all subsets.  `enumerate_all` makes tables and sequences
of these columns, and `_write_family` a family file, with no Python step
per rule, through `_write_columns`, the one writer of every file, tables
too.  It writes them, or the columns that `fileformats.format_family`
makes of (sequence, table) pairs, as:

* text: a `n=<int>` header line and a `count=<rules>` line, then one
  `default subset quotas table` line per rule, e.g. `b 2,5 5,2,12 bb...`:
  the default letter, the subset's members comma-separated (`-` for the
  empty subset), the proper sequence, and the table's outcomes as a/b
  letters in the canonical profile order.
* structured: a JSON object `{"n": ..., "count": ..., "family": [...]}`
  with one `{"default": ..., "subset": [...], "quotas": [...], "table":
  ...}` entry per rule, laid out as `json.dumps(indent=2)` lays it out.
"""

from collections.abc import Iterable
from itertools import repeat
from operator import add, itemgetter

from .core import (FORMATS, MAX_RULES, STRUCTURED, TEXT, Alternative, QuotaSeq, SearchBudgetExceeded, _arrange,
                   _check_society, _mirror)


def subset_to_proper(subset: Iterable[int], default: Alternative, n: int) -> QuotaSeq:
    """Proper sequence for a subset of {1, ..., n} and a default alternative.

    The default is the outcome when every voter is indifferent.
    """
    members = set(subset)
    for v in members:
        if not 1 <= v <= n:
            raise ValueError(f"subset element {v} outside {{1, ..., {n}}}")
    if default is Alternative.A:
        members = {0, *(_mirror(n, j) for j in members)}
    return QuotaSeq(n, _arrange(n, members))


def proper_to_subset(seq: QuotaSeq) -> tuple[frozenset[int], Alternative]:
    """Inverse of subset_to_proper; rejects non-proper input."""
    from .engine import _require_proper
    _require_proper(seq)
    return _subset_of(seq)


def _subset_of(seq: QuotaSeq) -> tuple[frozenset[int], Alternative]:
    """Subset and default of a proper sequence: its interior, through `_mirror` for default a."""
    *interior, terminal = seq.quotas
    if terminal == seq.n + 1:
        return frozenset(interior), Alternative.B
    return frozenset(_mirror(seq.n, k) for k in interior), Alternative.A


def _place(row, start, by_count, counts, l_step, u_step):
    """row[start + l*l_step + u*u_step] = by_count[counts[l]][u] for every l
    and u, in one slice assignment per l or per u, whichever are fewer."""
    if len(counts) <= len(by_count[0]):
        blocks, step, stride = map(by_count.__getitem__, counts), l_step, u_step
    else:  # two counts or more, so the getter returns tuples
        blocks, step, stride = map(itemgetter(*counts), zip(*by_count)), u_step, l_step
    for k, block in enumerate(blocks):
        row[start + k * step : start + k * step + len(block) * stride : stride] = block


def _family_staircases(n: int, pieces) -> list[list]:
    """For each row na, pieces[na][c] for every rule in the order of
    `enumerate_all`, c the row's length: a wins (na, nb) exactly when
    nb < c.  `pieces` yields the rows na = 0..n, each indexed by c, and is
    read only once 2**(n+1) is within MAX_RULES.

    Row na cuts J in two.  For default b, with p = |J[1, na]| and s the
    members above na less na, c is 0 for p = 0 and otherwise n+1-na less
    the p-th largest of s (0 if s has fewer); for default a, with
    q = |J[n-na+1, n]| and s the members up to n-na, c is the (q+1)-th
    smallest of s, or n+1-na if s has no more.  So each row is a table
    over (count, s), placed over the family in slice assignments.
    Default a is in the mirror's bit order, so its count reads the high bits."""
    _check_society(n)
    # decided from n alone: 2**(n+1) itself may be too large to build
    if n + 1 >= MAX_RULES.bit_length():
        raise SearchBudgetExceeded(
            f"enumerating n={n} yields 2**{n + 1} rules, budget is {MAX_RULES}"
        )
    # the subsets in binary-counter order: the first 2**k are those of {1, ..., k}
    subsets = [[]]
    for v in range(1, n + 1):
        subsets += [s + [v] for s in subsets]
    sizes = [len(s) for s in subsets]
    rows = []
    for na, piece in zip(range(n + 1), pieces):
        m = n - na  # the profiles of row na are nb = 0..m
        counts, upper, row = sizes[: 2**na], subsets[: 2**m], [None] * 2 ** (n + 1)
        # default b: p in the low bits of i, s in the high
        by_count = [[piece[0]] * 2**m]
        by_count += [[piece[m + 1 - s[-p]] if p <= len(s) else piece[m + 1] for s in upper] for p in range(1, na + 1)]
        _place(row, 0, by_count, counts, 1, 2**na)
        # default a: s in the low bits of i, q in the high
        by_count = [[piece[s[q]] if q < len(s) else piece[m + 1] for s in upper] for q in range(na + 1)]
        _place(row, 2**n, by_count, counts, 2**m, 1)
        rows.append(row)
    return rows


def enumerate_all(n: int) -> "list[tuple[QuotaSeq, CountTable]]":
    """Every anonymous strategy-proof rule for society size n, with its table.

    Order: default b then default a; within a default, subsets in
    binary-counter order (bit i-1 set means i is in the subset).  Emits
    exactly 2**(n+1) pairs.  The tables are built row by row from the
    subsets (see _family_staircases), not by tabulating each sequence.
    """
    from .tables import CountTable, _prefix_rows  # `enum` writes letters and loads no table
    # the mask whose row na alone holds the profiles nb < c
    row_masks = ([_prefix_rows(n, [0] * na + [c]) for c in range(n + 2 - na)] for na in range(n + 1))
    masks = map(sum, zip(*_family_staircases(n, row_masks)))
    _, sequences = _subset_texts(n, ((), (), (), ()), [(k,) for k in range(n + 2)])
    return [(QuotaSeq._trusted(n, q), CountTable._from_mask(n, mask)) for q, mask in zip(sequences, masks)]


#: The opener, separator and closer of a nonempty list of ints in a family
#: file, and its empty list; structured as json.dumps(indent=2) lays them out.
_LISTS = {TEXT: ("", ",", "", "-"), STRUCTURED: ("[\n        ", ",\n        ", "\n      ]", "[]")}


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")


def _subset_texts(n: int, layout, names) -> tuple[list, list]:
    """The members of the subsets of {1, ..., n} in binary-counter order and
    their sequences for default b then a, written with names[k] for k and a
    `layout` as in `_LISTS`: texts, or tuples for names[k] = (k,) and ().
    The sequences are the arrangement of `core._arrange`, built for all
    subsets at once.  Adding v to the first 2**(v-1) subsets gives the next
    2**(v-1); those with least member lo and greatest hi lie at a stride of
    2**lo, as do those of {lo+1, ..., hi-1} whose interiors theirs extend."""
    opener, sep, closer, empty = layout
    members = [opener]
    for v in names[1 : n + 1]:
        members += [opener + v, *map(add, members[1:], repeat(sep + v))]
    members = [empty, *map(add, members[1:], repeat(closer))]
    quotas = []
    for name in (names, names[::-1]):  # name[k] writes quota k, then its mirror
        interiors = [opener] * 2**n  # each entry followed by `sep`
        for hi in range(1, n + 1):
            interiors[2 ** (hi - 1)] = opener + name[hi] + sep
            for lo in range(1, hi):
                pair = name[hi] + sep + name[lo] + sep
                inner = interiors[: 2 ** (hi - 1) : 2**lo]
                interiors[2 ** (lo - 1) + 2 ** (hi - 1) : 2**hi : 2**lo] = map(add, inner, repeat(pair))
        quotas += map(add, interiors, repeat(name[n + 1] + closer))
    return members, quotas


def _family_file(n: int, fmt: str) -> str:
    """The family file of `enumerate_all(n)`: row na of a table is c a's, then b's up to n+1-na."""
    _check_format(fmt)
    letters = (["a" * c + "b" * (n + 1 - na - c) for c in range(n + 2 - na)] for na in range(n + 1))
    tables = _family_staircases(n, letters)
    members, quotas = _subset_texts(n, _LISTS[fmt], [str(k) for k in range(n + 2)])
    return _write_family(n, fmt, ["b"] * 2**n + ["a"] * 2**n, members * 2, quotas, tables)


def _write_family(n: int, fmt: str, defaults, members, quotas, tables) -> str:
    """Either family format from columns of one text per rule: the default
    letters, the members and the quotas as `fmt` writes them, then the
    columns whose texts, in turn, make up each rule's table."""
    count = len(defaults)
    if fmt != STRUCTURED:
        entry = [defaults, " ", members, " ", quotas, " ", *tables, "\n"]
        return _write_columns(f"n={n}\ncount={count}\n", entry, "\n")
    if not count:  # json.dumps writes an empty list on one line
        return f'{{\n  "n": {n},\n  "count": 0,\n  "family": []\n}}'
    entry = ['    {\n      "default": "', defaults, '",\n      "subset": ', members,
             ',\n      "quotas": ', quotas, ',\n      "table": "', *tables, '"\n    },\n']
    return _write_columns(f'{{\n  "n": {n},\n  "count": {count},\n  "family": [\n', entry, '"\n    }\n  ]\n}')


def _write_columns(head: str, entry: list, last: str) -> str:
    """`head`, then `entry` once per row with `last` as the last row's final
    text: its texts as they are, each other item a column of one text per
    row.  Structured files come out byte for byte as json.dumps(indent=2)
    writes them: no field, an int or a string of a/b/i letters, needs
    escaping."""
    rows = len(next(slot for slot in entry if not isinstance(slot, str)))
    # repeat the texts between the fields, then fill each field's slots from its column
    out = [slot if isinstance(slot, str) else "" for slot in entry] * rows
    for i, slot in enumerate(entry):
        if not isinstance(slot, str):
            out[i :: len(entry)] = slot
    if out:
        out[-1] = last
    out.insert(0, head)
    return "".join(out)

"""Reduction of defining sequences to their unique proper form.

Two rewriting steps, each of which provably leaves the induced rule
untouched, drive the reduction:

* drop any entry that lies weakly between two earlier entries (one earlier
  entry below it or equal, one above it or equal): a profile deciding at
  that entry would already have decided earlier;
* of two consecutive entries that escape the earlier range on the same
  side, drop the earlier one: every profile it decides is decided one
  step later by its more extreme neighbour, with the same outcome.

After truncating at the first terminal element (`engine.length`), one
pass of the escape-side walk (`engine._escape_sides`) per step applies
them: the first keeps the entries that escape the range of the entries
before them, and the second keeps only the last of each run of entries
that escape on the same side.  Neither step changes the range that
later entries are compared against, so the two passes reach the same
proper sequence as rewriting to a fixed point.  Each pass is one walk
over the sequence, so canonicalizing takes O(length) steps whatever n is.
"""

from collections.abc import Sequence

from .core import QuotaSeq
from .engine import _escape_sides, length


def truncate(raw: Sequence[int], n: int) -> QuotaSeq:
    """Prefix of a raw sequence up to and including its first element in {0, n+1}."""
    seq = QuotaSeq(n, tuple(raw))
    # a prefix of checked quotas that keeps the first terminal is checked too
    return QuotaSeq._trusted(n, seq.quotas[: length(seq) + 1])


def delete_dominated(seq: QuotaSeq) -> QuotaSeq:
    """Remove every entry weakly sandwiched by earlier entries.

    An interior entry k_g with min(earlier) <= k_g <= max(earlier) can never
    be the deciding index, so removing it preserves the rule.  Removing
    such an entry leaves the range of the entries before any later one
    unchanged, so keeping the entries that escape it removes every entry
    that leftmost-first removal to a fixed point would.  The leading entry
    stays, and the terminal always escapes, so neither is removed.
    """
    q = seq.quotas
    if length(seq) != len(q) - 1:
        raise ValueError("sequence must be truncated at its first element of {0, n+1}")
    kept = [v for v, side in zip(q[1:], _escape_sides(q)) if side]
    return QuotaSeq._trusted(seq.n, (q[0], *kept))


def canonicalize(raw: Sequence[int], n: int) -> QuotaSeq:
    """The unique proper sequence defining the same rule as the raw input.

    Truncates at the first terminal and deletes the dominated entries,
    then, in one pass, collapses each run of entries that escape on the
    same side to its last, most extreme entry.  A leading 0 or n+1
    denotes a constant rule and canonicalizes to the singleton sequence.
    """
    q = delete_dominated(truncate(raw, n)).quotas
    # every entry after the first escapes; keep the last of each same-side run
    sides = _escape_sides(q) + [0]
    kept = [v for v, side, after in zip(q[1:], sides, sides[1:]) if side != after]
    return QuotaSeq._trusted(n, (q[0], *kept))

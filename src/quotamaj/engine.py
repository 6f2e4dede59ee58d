"""Evaluation of quota-sequence voting rules.

A sequence of quotas (k_0, ..., k_r) decides a profile at the first index
where either at least k_i voters support a, or at least n+1-k_i voters
support b.  The two conditions are mutually exclusive (they would need
n+1 voters between them), so the deciding index yields a single outcome.
A quota equal to 0 or n+1 makes one condition vacuously true, which is
why every sequence must contain such a terminal element.

The b condition is the a condition on the quota mirrored by `core._mirror`,
the one map that swaps the alternatives in the package.  Where a sequence
decides is found by two walks: `_decide` for one profile (`length` is its
answer for the all-indifferent profile (0, 0), which only a terminal
meets), and the running range [lo, hi] of the entries, after which the
undecided profiles are exactly na < lo and nb < n+1-hi.  `_escape_sides`
reads that range entry by entry, for which entries can decide at all,
and `_staircase` row by row: a rule's table is one staircase, its row
lengths, and only `to_table` turns it into an n² mask, so only it loads
`tables`.  Extraction and the indifference-quota rules share the level
maps: `_row_thresholds` reads each indifference row's least winning
a-support off the staircase, and `_interleave` turns (ell, k) levels back
into a sequence.
"""

from .core import Alternative, CountProfile, QuotaSeq, _check_quotas, _mirror, check_table_size


def _decide(quotas: tuple[int, ...], n: int, na: int, nb: int) -> tuple[int, Alternative]:
    for lam, k in enumerate(quotas):
        if na >= k:
            return lam, Alternative.A
        if nb >= n + 1 - k:
            return lam, Alternative.B
    raise AssertionError("unreachable: sequence contains an element of {0, n+1}")


def _require_same_n(holder: str, n: int, profile: CountProfile) -> None:
    if n != profile.n:
        raise ValueError(f"society size mismatch: {holder} n={n}, profile has n={profile.n}")


def profile_index(seq: QuotaSeq, profile: CountProfile) -> int:
    """Index of the first quota that decides the profile."""
    _require_same_n("sequence has", seq.n, profile)
    return _decide(seq.quotas, seq.n, profile.na, profile.nb)[0]


def evaluate(seq: QuotaSeq, profile: CountProfile) -> Alternative:
    """Outcome of the quota-sequence rule on the given profile."""
    _require_same_n("sequence has", seq.n, profile)
    return _decide(seq.quotas, seq.n, profile.na, profile.nb)[1]


def evaluate_strict_quota(quota: int, profile: CountProfile) -> Alternative:
    """Single-quota rule on a strict profile: a iff at least `quota` support a."""
    _check_quotas(profile.n, (quota,))
    if profile.indifferent:
        raise ValueError(
            f"profile ({profile.na}, {profile.nb}) has indifferent voters; "
            "the single-quota rule is defined on strict profiles only"
        )
    return Alternative.A if profile.na >= quota else Alternative.B


def length(seq: QuotaSeq) -> int:
    """Position of the first element in {0, n+1}: the index that decides (0, 0)."""
    return _decide(seq.quotas, seq.n, 0, 0)[0]


def _escape_sides(quotas: tuple[int, ...]) -> list[int]:
    """The side on which each entry after the first escapes the entries before it.

    +1 above their range, -1 below it, and 0 weakly inside it: an entry
    inside the range can never be the deciding index.
    """
    lo = hi = quotas[0]
    sides = []
    for v in quotas[1:]:
        sides.append(1 if v > hi else -1 if v < lo else 0)
        lo, hi = min(lo, v), max(hi, v)
    return sides


def is_valid_r_tuple(seq: QuotaSeq) -> bool:
    """Distinct entries, interior ones in [1, n], exactly one terminal, at the end."""
    q = seq.quotas
    return len(set(q)) == len(q) and length(seq) == len(q) - 1


def is_proper(seq: QuotaSeq) -> bool:
    """Whether the sequence zig-zags strictly outward with alternating sides.

    A proper sequence has distinct entries, keeps its single element of
    {0, n+1} at the end, and every later entry escapes the range of all
    earlier ones, alternating strictly between the above side and the
    below side.  Such sequences are exactly the minimal-length defining
    sequences, and for onto rules the proper form is unique.

    Any sequence is accepted; shapes that break a condition report False.
    An entry that escapes the range of every earlier one equals none of
    them, so nonzero sides already make the entries distinct.
    """
    sides = _escape_sides(seq.quotas)
    return length(seq) == len(sides) and 0 not in sides and all(a != b for a, b in zip(sides, sides[1:]))


def _require_proper(seq: QuotaSeq) -> None:
    if not is_proper(seq):
        raise ValueError(f"({seq}) is not proper")


def dual(seq: QuotaSeq) -> QuotaSeq:
    """Swap the roles of the two alternatives: each quota k becomes n+1-k.

    Evaluating the dual sequence on the mirrored profile (nb, na) always
    yields the opposite outcome, and properness is preserved.
    """
    return QuotaSeq._trusted(seq.n, tuple([_mirror(seq.n, q) for q in seq.quotas]))


def _mirror_pairs(n: int, pairs) -> tuple[tuple[int, int], ...]:
    """The (ell, k) pairs with a and b swapped: each k mirrored among the n - ell voters."""
    return tuple((ell, _mirror(n - ell, k)) for ell, k in pairs)


def _interleave(n: int, default: Alternative, pairs) -> QuotaSeq:
    """Quota sequence equivalent to first-match evaluation of (ell, k) pairs
    with 0 <= ell < n and 1 <= k <= n - ell: for default b, ell+k then k
    per pair and n+1; default a is the dual of the mirrored pairs."""
    if default is Alternative.A:
        return dual(_interleave(n, Alternative.B, _mirror_pairs(n, pairs)))
    quotas = [q for ell, k in pairs for q in (ell + k, k)]
    quotas.append(n + 1)
    return QuotaSeq._trusted(n, tuple(quotas))


def _staircase(seq: QuotaSeq) -> list[int]:
    """Row lengths c_0..c_n of the rule's table: a wins (na, nb) exactly when nb < c_na.

    One walk over the running range [lo, hi] of the entries: before an
    entry, the undecided profiles are exactly na < lo and nb < n+1-hi.
    So an entry k < lo decides the rows k <= na < lo, and each row's
    undecided profiles nb < n+1-max(hi, na) go to a; b cannot decide at
    the entry itself, since na >= k and nb >= n+1-k would need n+1
    voters.  Rows never reached stay empty, and entries after the first
    terminal leave the lengths as they are.  Too large an n is refused
    first, so every reader of a rule's table has one size limit.
    """
    n = seq.n
    check_table_size(n)
    lengths = [0] * (n + 1)
    lo, hi = n + 1, 0
    for k in seq.quotas:
        if k < lo:
            lengths[k:lo] = [n + 1 - max(hi, na) for na in range(k, lo)]
            lo = k
        hi = max(hi, k)
    return lengths


def _row_thresholds(n: int, lengths: list[int]) -> tuple[int, ...]:
    """Least a-support that wins each row of a strategy-proof staircase, by
    the indifferent count ell; a row that a never wins reads n - ell + 1.

    a wins (j, n - ell - j) exactly when j + c_j > n - ell, and j + c_j
    rises strictly to n+1, so one pointer walk finds every least j.
    """
    thresholds = []
    j = 0
    for size in range(n + 1):  # size = n - ell voters not indifferent
        while j <= size and j + lengths[j] <= size:
            j += 1
        thresholds.append(j)
    return tuple(reversed(thresholds))


def to_table(seq: QuotaSeq) -> "CountTable":
    """Tabulate the rule over every count profile: the mask of its staircase."""
    from .tables import CountTable, _prefix_rows  # the one function here that makes a table
    return CountTable._from_mask(seq.n, _prefix_rows(seq.n, _staircase(seq)))

"""Reading a quota sequence, and its levels, off a strategy-proof anonymous table.

A strategy-proof count table is the up-closure of its corners
(`tables.CountTable._corners`), which are its proper sequence's entries
other than n+1 paired from the outside in, as the README proves.  So
`represent` checks the table with the oracle and places the corners as
`enumeration.subset_to_proper` does.

The levels come from that sequence.  With ell voters indifferent and a
quota k on the remaining n - ell, a profile is

* a-covered when at least k support a and fewer than the margin m
  (see `LKSequence.margin`) support b,
* b-covered when fewer than k support a and at least m support b.

In the row of profiles with ell voters indifferent, a wins exactly from
some support t(ell) on, read off the sequence's staircase by
`engine._row_thresholds`.  With default b, `_levels` walks these
thresholds once from the strict row down and opens the level
(ell, t(ell)) wherever a wins in the row below the last opened quota.
The recorded ells strictly increase and the quotas strictly decrease
while ell + k never decreases, and replaying the pairs first-match
reproduces the table exactly.

Default a is the mirror image of default b.  `core._mirror` maps a
quota k on the n - ell voters who are not indifferent to n - ell + 1 - k,
its quota once a and b swap, so the margin m is the mirrored k.  A
default-a rule's levels are walked from its mirrored thresholds,
validated as the mirrored default-b levels, and mirrored back.
"""

from . import oracle
# `CountTable` in annotations is `tables.CountTable`, which a caller loads to build one
from .core import Alternative, CountProfile, QuotaSeq, _Value, _mirror
from .engine import _interleave, _mirror_pairs, _require_same_n, _row_thresholds, _staircase


class NotStrategyProof(ValueError):
    """The table admits a profitable misreport and has no quota representation."""

    def __init__(self, counterexample: oracle.CountManipulation):
        super().__init__(f"table is manipulable: {counterexample}")
        self.counterexample = counterexample


def _check_pair(n: int, ell: int, k: int) -> None:
    if not 0 <= ell < n:
        raise ValueError(f"indifferent count {ell} outside [0, {n - 1}]")
    if not 1 <= k <= n - ell:
        raise ValueError(f"quota {k} outside [1, {n - ell}] for indifferent count {ell}")


class LKSequence(_Value):
    """Levels of the recovery: (ell, k) pairs plus the default outcome.

    pairs[i] = (ell_i, k_i); the default is the outcome under unanimous
    indifference.  Constant tables carry no pairs at all.
    """

    __slots__ = ("n", "default", "pairs")

    def __init__(self, n: int, default: Alternative, pairs: tuple[tuple[int, int], ...]) -> None:
        super().__init__(n, default, pairs)
        for ell, k in self.pairs:
            _check_pair(self.n, ell, k)
        if self.pairs and self.pairs[0][0] != 0:
            raise ValueError("the first level must have no indifferent voters")
        ells = [ell for ell, _ in self.pairs]
        if any(b <= a for a, b in zip(ells, ells[1:])):
            raise ValueError("indifferent counts must strictly increase")
        pairs = self.pairs
        strict, weak = "quotas must strictly decrease", "ell + k must not decrease"
        if self.default is Alternative.A:
            # validated as the mirrored default-b levels: mirroring turns
            # each quota k into n+1 - (ell + k), so quotas and sums trade places
            pairs = _mirror_pairs(self.n, pairs)
            strict, weak = "ell + k must strictly increase", "quotas must not increase"
        ks = [k for _, k in pairs]
        sums = [ell + k for ell, k in pairs]
        if any(b >= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"{strict} when the default is {self.default.value}")
        if any(b < a for a, b in zip(sums, sums[1:])):
            raise ValueError(f"{weak} when the default is {self.default.value}")

    def margin(self, i: int) -> int:
        """The b-side threshold m of pair i: b needs at least m supporters."""
        ell, k = self.pairs[i]
        return _mirror(self.n - ell, k)


def _covered_side(profile: CountProfile, ell: int, k: int) -> Alternative | None:
    """The side that the already checked level (ell, k) covers the profile for, or None."""
    a, b = profile.na >= k, profile.nb >= _mirror(profile.n - ell, k)
    return None if a == b else Alternative.A if a else Alternative.B


def covered_a(pair: tuple[int, int], profile: CountProfile) -> bool:
    """Whether the profile is decided for a by the (ell, k) level."""
    _check_pair(profile.n, *pair)
    return _covered_side(profile, *pair) is Alternative.A


def covered_b(pair: tuple[int, int], profile: CountProfile) -> bool:
    """Whether the profile is decided for b by the (ell, k) level."""
    _check_pair(profile.n, *pair)
    return _covered_side(profile, *pair) is Alternative.B


def psi_eval(seq: LKSequence, profile: CountProfile) -> Alternative:
    """First-match evaluation of the level pairs, default when uncovered;
    `LKSequence` has checked each level."""
    _require_same_n("levels have", seq.n, profile)
    return next(filter(None, (_covered_side(profile, *pair) for pair in seq.pairs)), seq.default)


def interleave(seq: LKSequence) -> QuotaSeq:
    """Quota sequence equivalent to first-match evaluation of the pairs."""
    return _interleave(seq.n, seq.default, seq.pairs)


def represent(table: "CountTable") -> QuotaSeq:
    """The unique proper quota sequence whose table equals the input: from the back,
    n+1 unless the first corner is in row 0 (a wins (0, 0)), then each corner's na and n - nb."""
    counterexample = oracle.find_manipulation(table)
    if counterexample is not None:
        raise NotStrategyProof(counterexample)
    n = table.n
    corners = table._corners()
    quotas = [] if corners and corners[0][0] == 0 else [n + 1]
    for na, nb in corners:
        quotas += (na,) if na == n - nb else (na, n - nb)
    return QuotaSeq._trusted(n, tuple(reversed(quotas)))


def _levels(seq: QuotaSeq) -> LKSequence:
    """The level pairs of a sequence's rule, walked from its row thresholds."""
    n = seq.n
    lengths = _staircase(seq)
    mirror = lengths[0] > 0  # a wins (0, 0): default a
    rows = enumerate(_row_thresholds(n, lengths))
    if mirror:
        rows = _mirror_pairs(n, rows)
    pairs = []
    last = n + 1
    for ell, t in rows:
        if t < last and t <= n - ell:
            pairs.append((ell, t))
            last = t
    if mirror:
        pairs = _mirror_pairs(n, pairs)
    return LKSequence(n=n, default=Alternative.A if mirror else Alternative.B, pairs=tuple(pairs))


def extract(table: "CountTable") -> LKSequence:
    """Recover the level pairs of a strategy-proof table."""
    return _levels(represent(table))

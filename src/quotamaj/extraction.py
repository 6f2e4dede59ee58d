"""Recovering a quota sequence from a strategy-proof anonymous table.

The recovery works on levels of indifference.  With ell voters indifferent
and a quota k on the remaining n - ell, a profile is

* a-covered when at least k support a and fewer than the margin m
  (see `LKSequence.margin`) support b,
* b-covered when fewer than k support a and at least m support b.

A strategy-proof table is one threshold per indifference row: in the row
of profiles with ell voters indifferent, a wins exactly from some support
t(ell) on.  With default b, the recovery walks these thresholds once from
the strict row down and opens the level (ell, t(ell)) wherever a wins in
the row below the last opened quota; the default-a case walks the
mirrored thresholds the same way and mirrors the quotas back.  The
recorded ells strictly increase and (with default b) the quotas strictly
decrease while ell + k never decreases, and replaying the pairs
first-match reproduces the table exactly.  Interleaving ell + k with k
and closing with a terminal turns the pairs into a defining quota
sequence, whose proper form is then the canonical representation of the
table.
"""

from __future__ import annotations

from . import oracle
from .canonical import canonicalize
from .core import Alternative, CountProfile, CountTable, QuotaSeq, _Value, _diagonals


class NotStrategyProof(ValueError):
    """The table admits a profitable misreport and has no quota representation."""

    def __init__(self, counterexample: oracle.CountManipulation):
        super().__init__(f"table is manipulable: {counterexample}")
        self.counterexample = counterexample


def _margin(n: int, ell: int, k: int) -> int:
    """The b-side threshold of quota k with ell voters indifferent.

    It is also the quota of the a/b-mirrored table, and its own inverse in k.
    """
    return n - ell - k + 1


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
        ks = [k for _, k in self.pairs]
        sums = [ell + k for ell, k in self.pairs]
        if self.default is Alternative.B:
            if any(b >= a for a, b in zip(ks, ks[1:])):
                raise ValueError("quotas must strictly decrease when the default is b")
            if any(b < a for a, b in zip(sums, sums[1:])):
                raise ValueError("ell + k must not decrease when the default is b")
        else:
            if any(b > a for a, b in zip(ks, ks[1:])):
                raise ValueError("quotas must not increase when the default is a")
            if any(b <= a for a, b in zip(sums, sums[1:])):
                raise ValueError("ell + k must strictly increase when the default is a")

    def margin(self, i: int) -> int:
        """The b-side threshold m of pair i: b needs at least m supporters."""
        return _margin(self.n, *self.pairs[i])


def covered_a(pair: tuple[int, int], profile: CountProfile) -> bool:
    """Whether the profile is decided for a by the (ell, k) level."""
    ell, k = pair
    _check_pair(profile.n, ell, k)
    m = _margin(profile.n, ell, k)
    return profile.na >= k and profile.nb < m


def covered_b(pair: tuple[int, int], profile: CountProfile) -> bool:
    """Whether the profile is decided for b by the (ell, k) level."""
    ell, k = pair
    _check_pair(profile.n, ell, k)
    m = _margin(profile.n, ell, k)
    return profile.na < k and profile.nb >= m


def psi_eval(seq: LKSequence, profile: CountProfile) -> Alternative:
    """First-match evaluation of the level pairs, default when uncovered."""
    if seq.n != profile.n:
        raise ValueError(
            f"society size mismatch: levels have n={seq.n}, profile has n={profile.n}"
        )
    for pair in seq.pairs:
        if covered_a(pair, profile):
            return Alternative.A
        if covered_b(pair, profile):
            return Alternative.B
    return seq.default


def interleave(seq: LKSequence) -> QuotaSeq:
    """Quota sequence equivalent to first-match evaluation of the pairs.

    Default b lists ell+k then k per level and closes with n+1; default a
    lists k then ell+k and closes with 0.
    """
    quotas: list[int] = []
    if seq.default is Alternative.B:
        for ell, k in seq.pairs:
            quotas += [ell + k, k]
        quotas.append(seq.n + 1)
    else:
        for ell, k in seq.pairs:
            quotas += [k, ell + k]
        quotas.append(0)
    return QuotaSeq(seq.n, tuple(quotas))


def _row_thresholds(table: CountTable) -> tuple[int, ...]:
    """Least a-support that wins each row, indexed by the indifferent count ell.

    Row ell holds the profiles with n - ell voters not indifferent; a row
    that a never wins reads n - ell + 1.
    """
    n = table.n
    bits = table.bit_string()
    thresholds = []
    for ell, diagonal in enumerate(_diagonals(n)):
        row = bits[diagonal]
        t = row.find("1")
        if t < 0:
            t = len(row)
        elif row.find("0", t) >= 0:
            # strategy-proofness makes these rows monotone; refuse to read garbage
            raise AssertionError(
                f"row with {ell} indifferent voters is not monotone above a-support {t}"
            )
        thresholds.append(t)
    return tuple(thresholds)


def extract(table: CountTable) -> LKSequence:
    """Recover the level pairs of a strategy-proof table.

    With default b, row ell opens the level (ell, t) when its threshold t
    is below the last quota and a wins somewhere in the row.  The
    default-a case walks the mirrored thresholds the same way and mirrors
    the quotas back.
    """
    counterexample = oracle.find_manipulation(table)
    if counterexample is not None:
        raise NotStrategyProof(counterexample)
    n = table.n
    default = table.outcome(0, 0)
    mirror = default is Alternative.A
    rows = enumerate(_row_thresholds(table))
    if mirror:
        rows = [(ell, _margin(n, ell, t)) for ell, t in rows]
    pairs = []
    last = n + 1
    for ell, t in rows:
        if t < last and t <= n - ell:
            pairs.append((ell, t))
            last = t
    if mirror:
        pairs = [(ell, _margin(n, ell, k)) for ell, k in pairs]
    return LKSequence(n=n, default=default, pairs=tuple(pairs))


def _proper_form(levels: LKSequence) -> QuotaSeq:
    """The proper sequence of already extracted levels."""
    return canonicalize(interleave(levels).quotas, levels.n)


def represent(table: CountTable) -> QuotaSeq:
    """The unique proper quota sequence whose table equals the input."""
    return _proper_form(extract(table))

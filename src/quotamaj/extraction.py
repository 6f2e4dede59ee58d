"""Recovering a quota sequence from a strategy-proof anonymous table.

The recovery walks levels of indifference.  With ell voters indifferent
and a quota k on the remaining n - ell, a profile is

* a-covered when at least k support a and fewer than m = n - ell - k + 1
  support b,
* b-covered when fewer than k support a and at least m support b.

Starting from the strict level, the walk repeatedly looks for the
least-indifference profile whose outcome disagrees with the default, reads
the quota for that level off the strict row of the shrunken society, and
records the (ell, k) pair.  For a strategy-proof table the recorded ells
strictly increase and (with default b) the quotas strictly decrease while
ell + k never decreases, and replaying the pairs first-match reproduces
the table exactly.  Interleaving ell + k with k and closing with a
terminal turns the pairs into a defining quota sequence, whose proper
form is then the canonical representation of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .canonical import canonicalize
from .core import Alternative, CountProfile, CountTable, QuotaSeq, all_count_profiles


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


@dataclass(frozen=True, slots=True)
class LKSequence:
    """Levels of the recovery: (ell, k) pairs plus the default outcome.

    pairs[i] = (ell_i, k_i); the default is the outcome under unanimous
    indifference.  Constant tables carry no pairs at all.
    """

    n: int
    default: Alternative
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
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
        """The b-side threshold m = n - ell - k + 1 of pair i."""
        ell, k = self.pairs[i]
        return self.n - ell - k + 1


def covered_a(pair: tuple[int, int], profile: CountProfile) -> bool:
    """Whether the profile is decided for a by the (ell, k) level."""
    ell, k = pair
    _check_pair(profile.n, ell, k)
    m = profile.n - ell - k + 1
    return profile.na >= k and profile.nb < m


def covered_b(pair: tuple[int, int], profile: CountProfile) -> bool:
    """Whether the profile is decided for b by the (ell, k) level."""
    ell, k = pair
    _check_pair(profile.n, ell, k)
    m = profile.n - ell - k + 1
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


def _dual_table(table: CountTable) -> CountTable:
    n = table.n
    return CountTable(
        n,
        tuple(table.outcome(p.nb, p.na).other for p in all_count_profiles(n)),
    )


def _strict_row_quota(table: CountTable, ell: int) -> int:
    """Least a-support that wins on the row with exactly ell indifferent voters."""
    size = table.n - ell
    row = [table.outcome(j, size - j) for j in range(size + 1)]
    for j in range(size):
        if row[j] is Alternative.A and row[j + 1] is Alternative.B:
            # strategy-proofness makes these rows monotone; refuse to read garbage
            raise AssertionError(
                f"row with {ell} indifferent voters is not monotone at a-support {j}"
            )
    for j, outcome in enumerate(row):
        if outcome is Alternative.A:
            return j
    return size + 1


def _extract_pairs_default_b(table: CountTable) -> list[tuple[int, int]]:
    n = table.n
    scan_order = sorted(all_count_profiles(n), key=lambda p: (p.indifferent, p.na, p.nb))
    uncovered = {(p.na, p.nb) for p in scan_order}
    pairs: list[tuple[int, int]] = []
    while True:
        witness = next(
            (
                p
                for p in scan_order
                if (p.na, p.nb) in uncovered and table.outcome(p.na, p.nb) is Alternative.A
            ),
            None,
        )
        if witness is None:
            return pairs
        ell = witness.indifferent
        k = _strict_row_quota(table, ell)
        if not 1 <= k <= n - ell:
            raise AssertionError(
                f"level {ell} produced quota {k}; the table cannot be strategy-proof"
            )
        m = n - ell - k + 1
        uncovered = {
            (na, nb)
            for na, nb in uncovered
            if not ((na >= k and nb < m) or (na < k and nb >= m))
        }
        pairs.append((ell, k))


def extract(table: CountTable) -> LKSequence:
    """Recover the level pairs of a strategy-proof table.

    The default-a case is handled through the two-alternative symmetry:
    extract the mirrored table with default b, then swap each quota for
    its dual threshold m = n - ell - k + 1.
    """
    counterexample = oracle.find_manipulation(table)
    if counterexample is not None:
        raise NotStrategyProof(counterexample)
    n = table.n
    default = table.outcome(0, 0)
    if default is Alternative.B:
        pairs = _extract_pairs_default_b(table)
    else:
        mirrored = _extract_pairs_default_b(_dual_table(table))
        pairs = [(ell, n - ell - k + 1) for ell, k in mirrored]
    return LKSequence(n=n, default=default, pairs=tuple(pairs))


def _proper_form(levels: LKSequence) -> QuotaSeq:
    """The proper sequence of already extracted levels."""
    return canonicalize(interleave(levels).quotas, levels.n)


def represent(table: CountTable) -> QuotaSeq:
    """The unique proper quota sequence whose table equals the input."""
    return _proper_form(extract(table))

"""Indifference-quota rules and conversion to and from proper sequences.

This alternative parametrization of the same rule family keys on how many
voters are indifferent.  A rule carries an indifference quota r and one
threshold per level below r:

* with r or more voters indifferent the default alternative wins outright;
* with exactly r - i indifferent (1 <= i <= r), a default-a rule picks a
  when at least x_i voters support a, and a default-b rule picks b when at
  least y'_i voters support b, where y'_i = (n - r + 1) - y_i + i rewrites
  the stored threshold y_i onto the b side.

Either way a wins exactly when at least x_i (or y_i) voters support a, so
the stored thresholds are the row thresholds of the table, the least
a-support that wins each indifference row, from the deepest level r - 1
up to the strict row, for either default.

The stored vectors are anchored at their first coordinate (x_1 = 1,
y_1 = n - r + 1) and grow by at most one per level.  Converting a rule to
its table and re-extracting the proper sequence is exact in both
directions.  The threshold vector read off a table is the only valid one:
each level row of an onto table holds both outcomes, so its least winning
support is forced, and the 2^(n+1) - 2 valid rules give pairwise-distinct
tables, one per onto rule.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import (
    Alternative,
    CountProfile,
    CountTable,
    QuotaSeq,
    _Value,
    _blank_digits,
    _diagonals,
    check_table_size,
)
from .engine import is_proper, to_table
from .extraction import _row_thresholds, represent


class LPRule(_Value):
    """Indifference-quota rule: default, quota r, and a threshold per level.

    thresholds holds the x vector for default a and the y vector for
    default b; for either default, thresholds[i - 1] is the least
    a-support that wins with r - i voters indifferent.
    """

    __slots__ = ("n", "default", "r", "thresholds")

    def __init__(self, n: int, default: Alternative, r: int, thresholds: tuple[int, ...]) -> None:
        super().__init__(n, default, r, thresholds)
        n, r = self.n, self.r
        if n < 1:
            raise ValueError(f"society size must be at least 1, got {n}")
        if not 1 <= r <= n:
            raise ValueError(f"indifference quota {r} outside [1, {n}]")
        t = self.thresholds
        if len(t) != r:
            raise ValueError(f"need {r} thresholds, got {len(t)}")
        base = 1 if self.default is Alternative.A else n - r + 1
        if t[0] != base:
            raise ValueError(f"first threshold must be {base}, got {t[0]}")
        for i, v in enumerate(t, start=1):
            if not base <= v <= base + i - 1:
                raise ValueError(
                    f"threshold {v} at level {i} outside [{base}, {base + i - 1}]"
                )
        if any(not cur <= nxt <= cur + 1 for cur, nxt in zip(t, t[1:])):
            raise ValueError("thresholds may grow by at most one per level")

    @property
    def b_thresholds(self) -> tuple[int, ...]:
        """For default b, the y' rewrite of the thresholds onto the b side."""
        if self.default is not Alternative.B:
            raise ValueError("b-side thresholds exist only for default-b rules")
        base = self.n - self.r + 1
        return tuple(base - y + i for i, y in enumerate(self.thresholds, start=1))


def lp_eval(rule: LPRule, profile: CountProfile) -> Alternative:
    """Outcome of an indifference-quota rule on a count profile."""
    if rule.n != profile.n:
        raise ValueError(
            f"society size mismatch: rule has n={rule.n}, profile has n={profile.n}"
        )
    idle = profile.indifferent
    if idle >= rule.r:
        return rule.default
    return Alternative.A if profile.na >= rule.thresholds[rule.r - idle - 1] else Alternative.B


def lp_to_table(rule: LPRule) -> CountTable:
    """Tabulate an indifference-quota rule over every count profile.

    In each indifference row a wins from some support t on: t is
    thresholds[i - 1] with r - i voters indifferent, and with r or more
    it is 0 for default a and past the row's end for default b.
    """
    n, r = rule.n, rule.r
    check_table_size(n)
    digits = _blank_digits(n)
    for ell, diagonal in enumerate(_diagonals(n)):
        size = n - ell
        if ell < r:
            t = rule.thresholds[r - ell - 1]
        else:
            t = 0 if rule.default is Alternative.A else size + 1
        digits[diagonal] = b"0" * t + b"1" * (size + 1 - t)
    return CountTable._from_digits(n, digits)


def proper_to_lp(seq: QuotaSeq) -> LPRule:
    """Read an indifference-quota rule off the table of an onto proper sequence.

    The quota r is one more than the deepest indifference row that is not
    all default, and the thresholds are the row thresholds from that row
    up to the strict one.  Constant rules are rejected: with no deviating
    profile there is no level to anchor r.
    """
    if not is_proper(seq):
        raise ValueError(f"({seq}) is not proper")
    n = seq.n
    if not 1 <= seq.quotas[0] <= n:
        raise ValueError("constant rules have no indifference-quota form")
    table = to_table(seq)
    rows = _row_thresholds(table)
    # strategy-proofness keeps 0 < t <= n - ell exactly on the rows that are not all default
    r = 1 + max(ell for ell, t in enumerate(rows) if 0 < t <= n - ell)
    return LPRule(n=n, default=table.outcome(0, 0), r=r, thresholds=rows[r - 1 :: -1])


def lp_to_proper(rule: LPRule) -> QuotaSeq:
    """The unique proper sequence whose table equals the rule's table."""
    return represent(lp_to_table(rule))


def all_rules(n: int, default: Alternative) -> Iterator[LPRule]:
    """Every valid indifference-quota rule for one default, in (r, vector) order."""
    for r in range(1, n + 1):
        base = 1 if default is Alternative.A else n - r + 1

        def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            i = len(prefix)
            if i == r:
                yield prefix
                return
            if i == 0:
                choices = [base]
            else:
                choices = [
                    v for v in (prefix[-1], prefix[-1] + 1) if v <= base + i
                ]
            for v in choices:
                yield from extend(prefix + (v,))

        for vector in extend(()):
            yield LPRule(n=n, default=default, r=r, thresholds=vector)


def rules_matching_table(table: CountTable) -> list[LPRule]:
    """Every valid indifference-quota rule whose table equals the given one.

    Exhaustive over both defaults; the certificate behind the uniqueness of
    this parametrization.  It returns at most one rule for any table: exactly
    one for a strategy-proof onto table, none for any other.
    """
    return [
        rule
        for default in (Alternative.B, Alternative.A)
        for rule in all_rules(table.n, default)
        if lp_to_table(rule) == table
    ]

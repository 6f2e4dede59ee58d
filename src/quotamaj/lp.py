"""Indifference-quota rules and conversion to and from proper sequences.

This alternative parametrization of the same rule family keys on how many
voters are indifferent.  A rule carries an indifference quota r and one
threshold per level below r:

* with r or more voters indifferent the default alternative wins outright;
* with exactly r - i indifferent (1 <= i <= r), a default-a rule picks a
  when at least x_i voters support a, and a default-b rule picks b when at
  least y'_i voters support b.

The two defaults are mirror images: `core._mirror` swaps a and b among
the n - r + i voters who are not indifferent, and y'_i is the stored
threshold y_i mirrored (`LPRule.b_thresholds`).  So either way a wins
exactly when at least x_i (or y_i) voters support a, and the stored
thresholds are the row thresholds of the table, the least a-support that
wins each indifference row, from the deepest level r - 1 up to the
strict row, for either default.

The stored vectors are anchored at their first coordinate (x_1 = 1,
y_1 = n - r + 1) and grow by at most one per level.  Conversion is exact
both ways and builds no table: with the level maps of `engine`,
`proper_to_lp` reads the thresholds off the staircase, and `lp_to_proper`
canonicalizes the interleaved levels.
The threshold vector read off a table is the only valid one: each level
row of an onto table holds both outcomes, so its least winning support is
forced, and the 2^(n+1) - 2 valid rules give pairwise-distinct tables,
one per onto rule.  The certificate of that uniqueness is acceptance
criterion 8's walk over every valid rule, in the tests.
"""

import itertools
from collections.abc import Iterator

# `CountTable` in annotations is `tables.CountTable`, which `to_table` loads
from .core import Alternative, CountProfile, QuotaSeq, _Value, _check_society, _mirror
from .engine import _interleave, _require_proper, _require_same_n, _row_thresholds, _staircase, to_table


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
        _check_society(n)
        if not 1 <= r <= n:
            raise ValueError(f"indifference quota {r} outside [1, {n}]")
        t = self.thresholds
        if len(t) != r:
            raise ValueError(f"need {r} thresholds, got {len(t)}")
        base = 1 if self.default is Alternative.A else n - r + 1
        if t[0] != base:
            raise ValueError(f"first threshold must be {base}, got {t[0]}")
        if any(not cur <= nxt <= cur + 1 for cur, nxt in zip(t, t[1:])):
            raise ValueError("thresholds may grow by at most one per level")

    @property
    def b_thresholds(self) -> tuple[int, ...]:
        """For default b, the least b-support that wins each level: the mirrored thresholds."""
        if self.default is not Alternative.B:
            raise ValueError("b-side thresholds exist only for default-b rules")
        n, r = self.n, self.r
        return tuple(_mirror(n - r + i, y) for i, y in enumerate(self.thresholds, start=1))


def lp_eval(rule: LPRule, profile: CountProfile) -> Alternative:
    """Outcome of an indifference-quota rule on a count profile."""
    _require_same_n("rule has", rule.n, profile)
    idle = profile.indifferent
    if idle >= rule.r:
        return rule.default
    return Alternative.A if profile.na >= rule.thresholds[rule.r - idle - 1] else Alternative.B


def _sequence(rule: LPRule) -> QuotaSeq:
    """The rule's levels (ell, t), t the threshold with ell < r voters
    indifferent, interleaved: each covers its own row, and since the table
    is strategy-proof, any other profile a level covers has that outcome."""
    r = rule.r
    pairs = [(ell, rule.thresholds[r - ell - 1]) for ell in range(r)]
    return _interleave(rule.n, rule.default, pairs)


def lp_to_table(rule: LPRule) -> "CountTable":
    """Tabulate an indifference-quota rule over every count profile."""
    return to_table(_sequence(rule))


def proper_to_lp(seq: QuotaSeq) -> LPRule:
    """Read an indifference-quota rule off the staircase of an onto proper sequence.

    The quota r is one more than the deepest indifference row that is not
    all default, and the thresholds are the row thresholds from that row
    up to the strict one.  Constant rules are rejected: with no deviating
    profile there is no level to anchor r.
    """
    _require_proper(seq)
    n = seq.n
    if not 1 <= seq.quotas[0] <= n:
        raise ValueError("constant rules have no indifference-quota form")
    lengths = _staircase(seq)
    rows = _row_thresholds(n, lengths)
    # strategy-proofness keeps 0 < t <= n - ell exactly on the rows that are not all default
    r = 1 + max(ell for ell, t in enumerate(rows) if 0 < t <= n - ell)
    default = Alternative.A if lengths[0] else Alternative.B  # the winner of (0, 0)
    return LPRule(n=n, default=default, r=r, thresholds=rows[r - 1 :: -1])


def lp_to_proper(rule: LPRule) -> QuotaSeq:
    """The unique proper sequence whose table equals the rule's table."""
    from .canonical import canonicalize
    return canonicalize(_sequence(rule).quotas, rule.n)


def all_rules(n: int, default: Alternative) -> Iterator[LPRule]:
    """Every valid indifference-quota rule for one default, in (r, vector) order:
    acceptance criterion 8's walk over them is the uniqueness certificate."""
    for r in range(1, n + 1):
        base = 1 if default is Alternative.A else n - r + 1
        # each threshold repeats the one before it or exceeds it by one
        for steps in itertools.product((0, 1), repeat=r - 1):
            vector = tuple(itertools.accumulate(steps, initial=base))
            yield LPRule(n=n, default=default, r=r, thresholds=vector)

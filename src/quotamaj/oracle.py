"""Brute-force ground truth for anonymity, strategy-proofness, and ontoness.

Nothing in this module knows about quota sequences.  It checks the raw
definitions by exhaustive iteration, which is what makes it a trust
anchor for everything else: a rule is strategy-proof exactly when no
single voter, at any profile, can flip the outcome to one they strictly
prefer by misreporting.

On anonymous tables the check is one closure property.  Only a supporter
of the losing alternative has a motive, and each misreport moves the
counts one step, so a table is strategy-proof exactly when the profiles a
wins stay closed under three moves: a gains a supporter, b loses one, and
a b-supporter switches to a.  Each move is one shift of a bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Alternative,
    CountProfile,
    CountTable,
    FullProfile,
    FullTable,
    Preference,
    SearchBudgetExceeded,
    _grid,
    all_count_profiles,
    all_full_profiles,
    count_of,
    count_table_size,
)


@dataclass(frozen=True, slots=True)
class CountManipulation:
    """A profitable single-voter misreport on an anonymous table."""

    profile: CountProfile
    truthful: Preference
    misreport: Preference
    honest_outcome: Alternative
    manipulated_outcome: Alternative

    @property
    def misreported_profile(self) -> CountProfile:
        counts = dict(zip(Preference, (self.profile.na, self.profile.nb, 0)))
        counts[self.truthful] -= 1
        counts[self.misreport] += 1
        return CountProfile(counts[Preference.A], counts[Preference.B], self.profile.n)

    def __str__(self) -> str:
        return (
            f"at na={self.profile.na} nb={self.profile.nb}, "
            f"{self.truthful}-voter misreporting as {self.misreport} "
            f"turns {self.honest_outcome} into {self.manipulated_outcome}"
        )


@dataclass(frozen=True, slots=True)
class FullManipulation:
    """A profitable misreport by one named voter on a full table."""

    profile: FullProfile
    voter: int
    misreport: Preference
    honest_outcome: Alternative
    manipulated_outcome: Alternative

    @property
    def misreported_profile(self) -> FullProfile:
        changed = list(self.profile)
        changed[self.voter] = self.misreport
        return tuple(changed)

    def __str__(self) -> str:
        profile = "".join(p.value for p in self.profile)
        return (
            f"at profile {profile}, voter {self.voter} ({self.profile[self.voter]}) "
            f"misreporting as {self.misreport} "
            f"turns {self.honest_outcome} into {self.manipulated_outcome}"
        )


def check_anonymous(
    table: FullTable, classes: dict[tuple[int, int], Alternative] | None = None
) -> bool:
    """Whether the table is constant on every class of equal-count profiles.

    When `classes` is given, it receives each class's outcome, keyed by
    (na, nb), so that a caller can reduce the table in the same pass.
    """
    seen = {} if classes is None else classes
    for profile, outcome in table.items():
        counts = count_of(profile)
        if seen.setdefault((counts.na, counts.nb), outcome) is not outcome:
            return False
    return True


def reduce_to_counts(table: FullTable) -> CountTable:
    """Collapse an anonymous full table to its count table.

    The counts are collected by the anonymity check's own pass; a table
    that is not anonymous raises ValueError.
    """
    outcomes: dict[tuple[int, int], Alternative] = {}
    if not check_anonymous(table, outcomes):
        raise ValueError("table is not anonymous; it has no count form")
    return CountTable.from_mapping(table.n, outcomes)


@lru_cache(maxsize=16)
def _count_positions(n: int) -> tuple[int, ...]:
    # for each full profile in canonical order, the index of its count profile
    index = {(p.na, p.nb): i for i, p in enumerate(all_count_profiles(n))}
    positions = []
    for profile in all_full_profiles(n):
        c = count_of(profile)
        positions.append(index[(c.na, c.nb)])
    return tuple(positions)


def expand_to_full(table: CountTable) -> FullTable:
    """The (anonymous) full table induced by a count table."""
    outcomes = table.outcomes
    return FullTable(
        table.n, tuple(outcomes[i] for i in _count_positions(table.n))
    )


def _escapes(region: int, width: int, valid: int) -> tuple[int, int, int]:
    """Where a gained a-supporter, a lost b-supporter and a b-to-a switch
    lead out of the region; the table is strategy-proof iff all are empty."""
    out = valid & ~region
    return (region << width) & out, (region >> 1) & out, (region << (width - 1)) & out


def find_manipulation(table: CountTable) -> CountManipulation | None:
    """First profitable misreport in canonical order, or None.

    Only a supporter of the losing alternative can profit, and only by
    stepping to indifference or to the other alternative: an a-supporter
    at the end of an escaping move, a b-supporter at its start.
    """
    width, valid = _grid(table.n)
    gain, lose, switch = _escapes(table.mask, width, valid)
    # honest profiles, in the order the misreports are tried at one profile;
    # an a-supporter switching to b undoes a b-supporter's switch from an
    # earlier profile, so it never comes first
    moves = (
        (gain, Preference.A, Preference.INDIFFERENT),
        (lose << 1, Preference.B, Preference.INDIFFERENT),
        (switch >> (width - 1), Preference.B, Preference.A),
    )
    honest = gain | lose << 1 | switch >> (width - 1)
    if not honest:
        return None
    first = honest & -honest
    truthful, misreport = next((t, m) for mask, t, m in moves if mask & first)
    wanted = Alternative(truthful.value)
    na, nb = divmod(first.bit_length() - 1, width)
    return CountManipulation(
        CountProfile(na, nb, table.n), truthful, misreport, wanted.other, wanted
    )


def check_strategy_proof(table: CountTable) -> bool:
    return find_manipulation(table) is None


def find_manipulation_full(table: FullTable, max_n: int = 10) -> FullManipulation | None:
    """First profitable misreport over all profiles, voters, and misreports.

    No anonymity assumed.  Guarded because the scan visits 3**n profiles.
    """
    if table.n > max_n:
        raise SearchBudgetExceeded(
            f"full manipulation scan for n={table.n} exceeds the n<={max_n} guard"
        )
    for profile, outcome in table.items():
        for voter, truthful in enumerate(profile):
            if truthful is Preference.INDIFFERENT:
                continue  # indifferent voters cannot profit
            wanted = Alternative.A if truthful is Preference.A else Alternative.B
            if outcome is wanted:
                continue
            changed = list(profile)
            for mis in Preference:
                if mis is truthful:
                    continue
                changed[voter] = mis
                if table.outcome(tuple(changed)) is wanted:
                    return FullManipulation(profile, voter, mis, outcome, wanted)
                changed[voter] = truthful
    return None


def check_strategy_proof_full(table: FullTable, max_n: int = 10) -> bool:
    return find_manipulation_full(table, max_n=max_n) is None


def is_onto(table: CountTable) -> bool:
    """Whether both alternatives appear among the outcomes."""
    return table.mask not in (0, _grid(table.n)[1])


def tables_equal(first: CountTable, second: CountTable) -> bool:
    """Pointwise equality over all count profiles."""
    if first.n != second.n:
        raise ValueError(f"society size mismatch: {first.n} vs {second.n}")
    return first.mask == second.mask


def exhaustive_sp_family(n: int) -> list[CountTable]:
    """Every strategy-proof count table, found by filtering all candidates.

    The candidate space has 2**((n+1)(n+2)/2) tables, so only n <= 5 is
    allowed (n=5 already means scanning about 2.1 million candidates).
    Tables come out in ascending order of their mask.
    """
    if n > 5:
        raise SearchBudgetExceeded(
            f"exhaustive table search for n={n} would scan 2**{count_table_size(n)} candidates"
        )
    width, valid = _grid(n)
    family = []
    region = 0
    while True:
        if not any(_escapes(region, width, valid)):
            family.append(CountTable._from_mask(n, region))
        # the next subset of the valid profiles, in ascending order
        region = (region - valid) & valid
        if not region:
            return family

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

On full tables a profile is its position p in all_full_profiles: voter v,
of place w = 3**(n-1-v), declares the digit t = p // w % 3 (a=0, b=1,
i=2), and misreporting m moves the profile to p + (m - t) * w.
"""

from .core import Alternative, CountProfile, SearchBudgetExceeded, _Value, count_table_size
from .tables import PREFERENCES, CountTable, FullProfile, FullTable, Preference, _grid


class CountManipulation(_Value):
    """A profitable single-voter misreport on an anonymous table."""

    __slots__ = ("profile", "truthful", "misreport", "honest_outcome", "manipulated_outcome")

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


class FullManipulation(_Value):
    """A profitable misreport by one named voter on a full table."""

    __slots__ = ("profile", "voter", "misreport", "honest_outcome", "manipulated_outcome")

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


def _count_positions(n: int) -> list[int]:
    # for each full profile in canonical order, the grid bit na*(n+2) + nb of
    # its count profile: each voter's a, b or i adds one to na, nb or neither
    bits = [0]
    for _ in range(n):
        bits = [c + d for c in bits for d in (n + 2, 1, 0)]
    return bits


def _class_mask(table: FullTable) -> int | None:
    """The grid mask of the count classes that a wins, or None when some
    profile's outcome differs from the one its class keeps."""
    positions = _count_positions(table.n)
    kept = dict(zip(positions, table.outcomes))  # each class keeps its last profile's
    if list(map(kept.__getitem__, positions)) != list(table.outcomes):
        return None
    return sum([1 << bit for bit, outcome in kept.items() if outcome is Alternative.A])


def check_anonymous(table: FullTable) -> bool:
    """Whether the table is constant on every class of equal-count profiles."""
    return _class_mask(table) is not None


def reduce_to_counts(table: FullTable) -> CountTable:
    """Collapse an anonymous full table to its count table; a table that is
    not anonymous raises ValueError."""
    mask = _class_mask(table)
    if mask is None:
        raise ValueError("table is not anonymous; it has no count form")
    return CountTable._from_mask(table.n, mask)  # each bit is a count profile's


def expand_to_full(table: CountTable) -> FullTable:
    """The (anonymous) full table induced by a count table, whose outcomes need no check."""
    outcome, mask = (Alternative.B, Alternative.A), table.mask
    outcomes = tuple([outcome[mask >> bit & 1] for bit in _count_positions(table.n)])
    return FullTable._from_outcomes(table.n, outcomes)


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


#: The full scan visits 3**n profiles; larger tables are refused.
MAX_FULL_SCAN_N = 10


def find_manipulation_full(table: FullTable) -> FullManipulation | None:
    """First profitable misreport, no anonymity assumed: the least position,
    then voter, then misreport in Preference order, or None."""
    n = table.n
    if n > MAX_FULL_SCAN_N:
        raise SearchBudgetExceeded(
            f"full manipulation scan for n={n} exceeds the n<={MAX_FULL_SCAN_N} guard"
        )
    outcomes = table.outcomes
    places = [3 ** (n - 1 - v) for v in range(n)]
    for p, honest in enumerate(outcomes):
        # only a supporter of the loser can profit: digit 1 (b) when a wins, 0 (a) when b wins
        t = 1 if honest is Alternative.A else 0
        for voter, w in enumerate(places):
            if p // w % 3 == t:
                for m in range(3):
                    if m != t and outcomes[p + (m - t) * w] is not honest:
                        profile = tuple([PREFERENCES[p // u % 3] for u in places])
                        return FullManipulation(profile, voter, PREFERENCES[m], honest, honest.other)
    return None


def is_onto(table: CountTable) -> bool:
    """Whether both alternatives appear among the outcomes.

    Every builder keeps the mask inside the valid profiles, so its set
    bits are the profiles a wins: a wins somewhere when one bit is set, and
    b when fewer than all count_table_size(n) are.
    """
    return 0 < table.mask.bit_count() < count_table_size(table.n)

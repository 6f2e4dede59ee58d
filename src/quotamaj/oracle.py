"""Brute-force ground truth for anonymity, strategy-proofness, and ontoness.

Nothing in this module knows about quota sequences.  It checks the raw
definitions over every profile, which is what makes it a trust anchor for
everything else: a rule is strategy-proof exactly when no single voter,
at any profile, can flip the outcome to one they strictly prefer by
misreporting.

On anonymous tables the check is one closure property.  Only a supporter
of the losing alternative has a motive, and each misreport moves the
counts one step, so a table is strategy-proof exactly when the profiles a
wins stay closed under three moves: a gains a supporter, b loses one, and
a b-supporter switches to a.  Each move is one shift of a bitmask.

On full tables a profile is its position p in all_full_profiles: voter v,
of place w = 3**(n-1-v), declares the digit t = p // w % 3 (a=0, b=1,
i=2), and misreporting m moves the profile to p + (m - t) * w.  So each
voter's four profitable misreports are shifts of the table's mask by w or
2w, masked to where the voter declares a or b.  A full table is anonymous
exactly when it is the expansion of the count table that its profiles
a…ab…bi…i give, one per class, so anonymity is that round trip.
"""

from .core import Alternative, CountProfile, _Value, count_table_size
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


def _classes(table: FullTable) -> CountTable:
    """The count table that gives class (na, nb) the outcome of its profile
    a…ab…bi…i, whose base-3 digits are na 0s, nb 1s and then 2s."""
    n, mask = table.n, table.mask
    return CountTable._from_mask(n, sum([
        (mask >> (3 ** (n - na) + 3 ** (n - na - nb)) // 2 - 1 & 1) << na * (n + 2) + nb
        for na in range(n + 1) for nb in range(n + 1 - na)
    ]))


def check_anonymous(table: FullTable) -> bool:
    """Whether the table is constant on every class of equal-count profiles."""
    return expand_to_full(_classes(table)) == table


def reduce_to_counts(table: FullTable) -> CountTable:
    """Collapse an anonymous full table to its count table; a table that is
    not anonymous raises ValueError."""
    classes = _classes(table)
    if expand_to_full(classes) != table:
        raise ValueError("table is not anonymous; it has no count form")
    return classes


def expand_to_full(table: CountTable) -> FullTable:
    """The (anonymous) full table induced by a count table, whose outcomes need no check."""
    n, width = table.n, table.n + 2
    # after step k, cells[g] masks the profiles of the last k+1 voters where a
    # wins once the voters before them reach grid bit g; the voter added leads
    # the k+1, and its a, b or i adds width, 1 or 0 to the grid bit
    cells = [table.mask >> g & 1 for g in range((n + 1) * width)]
    for k in range(n):
        cells = [a | b << 3**k | c << 2 * 3**k for a, b, c in zip(cells[width:], cells[1:], cells)]
    return FullTable._from_mask(n, cells[0])


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
    return CountManipulation(CountProfile(na, nb, table.n), truthful, misreport, wanted.other, wanted)


def find_manipulation_full(table: FullTable) -> FullManipulation | None:
    """First profitable misreport, no anonymity assumed: the least position,
    then voter, then misreport in Preference order, or None."""
    n, a = table.n, table.mask
    b = (1 << 3**n) - 1 & ~a
    masks = []
    for voter in range(n):
        w = 3 ** (n - 1 - voter)
        # where the voter declares a: digit 0 of place w, the lowest w of every 3w positions
        decl_a = int(("0" * 2 * w + "1" * w) * 3**voter, 2)
        decl_b = decl_a << w
        # where a b-supporter gains by a or i, then an a-supporter by b or i
        masks += [a & decl_b & b << w, a & decl_b & b >> w, b & decl_a & a >> w, b & decl_a & a >> 2 * w]
    first = min([mask & -mask for mask in masks if mask], default=0)
    if not first:
        return None
    voter, move = divmod(next(k for k, mask in enumerate(masks) if mask & first), 4)
    p = first.bit_length() - 1
    profile = tuple([PREFERENCES[p // 3 ** (n - 1 - u) % 3] for u in range(n)])
    outcome = Alternative.A if a & first else Alternative.B
    misreport = (Preference.A, Preference.INDIFFERENT, Preference.B, Preference.INDIFFERENT)[move]
    return FullManipulation(profile, voter, misreport, outcome, outcome.other)


def is_onto(table: CountTable) -> bool:
    """Whether both alternatives appear among the outcomes.

    Every builder keeps the mask inside the valid profiles, so its set
    bits are the profiles a wins: a wins somewhere when one bit is set, and
    b when fewer than all count_table_size(n) are.
    """
    return 0 < table.mask.bit_count() < count_table_size(table.n)

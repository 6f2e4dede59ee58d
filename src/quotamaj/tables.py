"""Outcome tables, maps from every profile of a society to an alternative.

A `CountTable` is a bitmask over the padded grid of count profiles, a
`FullTable` one outcome per full profile.  Full per-voter profiles exist
only so that anonymity itself, and single-voter manipulation, can be
checked against the raw definitions.  Only code that builds or reads a
table loads this module: `core` forwards its public names here on first
use, so the commands that build no table (`eval`, `canon`, `convert`,
`enum`, `count`) do not compile it.  It owns the table encodings: outcome
letters to alternatives, the grid's digits and the canonical key order.
"""

import itertools
from collections.abc import Callable, Iterator, Mapping
from enum import Enum

from .core import (Alternative, CountProfile, _Value, _check_society, _trusted, all_count_profiles,
                   check_table_size, count_table_size)


class Preference(Enum):
    """One voter's declaration: prefer a, prefer b, or indifferent."""

    A = "a"
    B = "b"
    INDIFFERENT = "i"

    def __str__(self) -> str:
        return self.value


#: A full profile is one Preference per voter, in voter order.
FullProfile = tuple[Preference, ...]

PREFERENCES = (Preference.A, Preference.B, Preference.INDIFFERENT)


def count_of(profile: FullProfile) -> CountProfile:
    """Summarize a full profile into its anonymous support counts."""
    return CountProfile(profile.count(Preference.A), profile.count(Preference.B), len(profile))


def all_full_profiles(n: int) -> Iterator[FullProfile]:
    """All 3**n full profiles, in lexicographic (a, b, i) per-voter order."""
    _check_society(n)
    return itertools.product(PREFERENCES, repeat=n)


_LETTER = {p: p.value for p in PREFERENCES}
#: A full profile's position in all_full_profiles is its letters read as
#: base-3 digits, a=0, b=1, i=2, the first voter most significant.
_BASE3 = str.maketrans("abi", "012")


# A mask of many rows is built as a string of '0'/'1' digits and parsed
# once: summing n shifted rows would cost n times the size of the mask.
# A mask of one row na is _prefix_rows(n, [0] * na + [c]), its profiles nb < c.


def _prefix_rows(n: int, lengths: list[int]) -> int:
    """Grid mask whose row na holds the profiles nb < lengths[na]."""
    # most significant row first
    return int("".join(["0" * (n + 2 - c) + "1" * c for c in reversed(lengths)]), 2)


def _place_rows(n: int, letters: str) -> int:
    """Grid mask from one outcome letter, 'a' or 'b', per profile in the
    all_count_profiles order."""
    digits = letters.translate(_DIGITS)
    rows, start = [], 0
    for na in range(n + 1):
        rows.append(digits[start : start + n + 1 - na].ljust(n + 2, "0"))
        start += n + 1 - na
    # character i is bit i, so the least significant digit comes first
    return int("".join(rows)[::-1], 2)


def _grid(n: int) -> tuple[int, int]:
    """Width n+2 of the padded grid of profiles and the mask of its valid bits.

    Profile (na, nb) is bit na*(n+2) + nb.  The spare column n+1 is never
    valid, so no shift by less than a row wraps a profile into the next row.
    """
    return n + 2, _prefix_rows(n, [n + 1 - na for na in range(n + 1)])


_OUTCOMES = {"a": Alternative.A, "b": Alternative.B}
_LETTERS = str.maketrans("10", "ab")
_DIGITS = str.maketrans("ab", "10")


def _parse_outcome(token: str) -> Alternative:
    outcome = _OUTCOMES.get(token)
    if outcome is None:
        raise ValueError(f"outcome must be 'a' or 'b', got {token!r}")
    return outcome


def _canonical_keys(n: int, form) -> tuple[tuple, ...]:
    """The key columns of a table for n in the canonical profile order: the
    profile strings of a full table when form is None, else the na and nb
    columns of a count table as `form` (str or int) values."""
    if form is None:
        # all_full_profiles order, a=0 < b=1 < i=2 per voter
        return (tuple(map("".join, itertools.product("abi", repeat=n))),)
    values = list(map(form, range(n + 1)))
    na = itertools.chain.from_iterable(itertools.repeat(values[a], n + 1 - a) for a in range(n + 1))
    nb = itertools.chain.from_iterable(values[: n + 1 - a] for a in range(n + 1))
    return tuple(na), tuple(nb)


def _check_outcomes(outcomes) -> tuple[Alternative, ...]:
    """The outcomes as a tuple; ValueError names the first that is not an Alternative."""
    outcomes = tuple(outcomes)  # any iterable; no copy of a tuple
    # count compares by identity first, so no Enum is hashed
    if outcomes.count(Alternative.A) + outcomes.count(Alternative.B) != len(outcomes):
        bad = next(o for o in outcomes if o is not Alternative.A and o is not Alternative.B)
        raise ValueError(f"outcome must be an Alternative, got {bad!r}")
    return outcomes


class CountTable(_Value):
    """Total map from every count profile of a society to an alternative.

    The table is stored as the set of profiles that a wins, a bitmask over
    the padded grid of `_grid`: profile (na, nb) is bit na*(n+2) + nb.
    Equal tables have equal masks, which makes tables directly comparable
    and hashable; the outcomes in the all_count_profiles order are a view.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, outcomes: tuple[Alternative, ...]) -> None:
        _check_count_size(n, len(outcomes))
        _check_outcomes(outcomes)
        A = Alternative.A  # letters by identity: the Enum's .value is a descriptor call
        super().__init__(n, _place_rows(n, "".join(["a" if o is A else "b" for o in outcomes])))

    # trusted: the caller built mask inside the valid profiles of _grid(n)
    _from_mask = classmethod(_trusted)

    def __reduce__(self):
        # the function itself: a classmethod over it would pickle under its name, `_trusted`
        return _trusted, (CountTable, self.n, self.mask)

    @classmethod
    def from_function(cls, n: int, rule: Callable[[CountProfile], Alternative]) -> "CountTable":
        check_table_size(n)
        return cls(n, tuple(rule(p) for p in all_count_profiles(n)))

    @classmethod
    def from_mapping(cls, n: int, outcomes: Mapping[tuple[int, int], Alternative]) -> "CountTable":
        # checked before anything is allocated: n may come from an untrusted header
        _check_count_size(n, len(outcomes))
        _check_outcomes(outcomes.values())
        return cls._from_entries(n, outcomes)

    @classmethod
    def _from_entries(cls, n: int, outcomes: Mapping[tuple[int, int], Alternative]) -> "CountTable":
        # trusted: the caller checked the outcomes and their number, and as many
        # distinct keys as profiles, each a profile, is every profile once
        letters = ["b"] * count_table_size(n)
        for (na, nb), outcome in outcomes.items():
            if na < 0 or nb < 0 or na + nb > n:
                raise ValueError(f"table entry ({na}, {nb}) is not a count profile for n={n}")
            if outcome is Alternative.A:
                # row na follows the n+1, n, ..., n+2-na profiles of the rows above it
                letters[na * (2 * n + 3 - na) // 2 + nb] = "a"
        return cls._from_mask(n, _place_rows(n, "".join(letters)))

    def _bit_string(self) -> str:
        """The mask as '0'/'1' characters; character na*(n+2) + nb is profile (na, nb)."""
        n = self.n
        return format(self.mask, f"0{(n + 1) * (n + 2)}b")[::-1]

    def _staircase(self) -> list[int] | None:
        """Row lengths c_0..c_n, a winning (na, nb) exactly when nb < c_na, or
        None when a row is no prefix; `_prefix_rows` is the inverse."""
        width = self.n + 2
        bits = self._bit_string()
        lengths = []
        for start in range(0, len(bits), width):
            # the spare column is '0', so every row has a first '0'
            c = bits.index("0", start)
            if bits.find("1", c, start + width) >= 0:
                return None
            lengths.append(c - start)
        return lengths

    @property
    def outcomes(self) -> tuple[Alternative, ...]:
        """Outcomes in the all_count_profiles order."""
        return tuple(map(_OUTCOMES.__getitem__, self.outcome_string()))

    def outcome(self, na: int, nb: int) -> Alternative:
        if na < 0 or nb < 0 or na + nb > self.n:
            raise ValueError(f"({na}, {nb}) is not a count profile for n={self.n}")
        return Alternative.A if self.mask >> (na * (self.n + 2) + nb) & 1 else Alternative.B

    def items(self) -> Iterator[tuple[CountProfile, Alternative]]:
        return zip(all_count_profiles(self.n), self.outcomes)

    def outcome_string(self) -> str:
        """Outcomes as a compact 'abba...' string in canonical profile order."""
        # one digit per profile, in the all_count_profiles order: nb = 0..n-na of each row na
        n, bits = self.n, self._bit_string()
        return "".join([bits[na * (n + 2) : na * (n + 2) + n + 1 - na] for na in range(n + 1)]).translate(_LETTERS)


def _check_count_size(n: int, entries: int) -> None:
    """Refuse a count table for n voters unless it has an entry per count profile."""
    _check_society(n)
    if entries != count_table_size(n):
        raise ValueError(f"table for n={n} needs {count_table_size(n)} entries, got {entries}")


def _check_full_size(n: int, entries: int) -> None:
    """Refuse a full table for n voters unless it has 3**n entries.

    n may come from an untrusted header, so 3**n is formed only for an n
    that `entries` can match.
    """
    _check_society(n)
    if n >= entries.bit_length() or 3**n != entries:
        raise ValueError(f"table for n={n} needs 3**{n} entries, got {entries}")


class FullTable(_Value):
    """Total map from every full profile of length n to an alternative."""

    __slots__ = ("n", "outcomes")

    def __init__(self, n: int, outcomes: tuple[Alternative, ...]) -> None:
        _check_full_size(n, len(outcomes))
        super().__init__(n, _check_outcomes(outcomes))

    # trusted: the caller checked the 3**n size and built a tuple of Alternatives
    _from_outcomes = classmethod(_trusted)

    @classmethod
    def from_function(cls, n: int, rule: Callable[[FullProfile], Alternative]) -> "FullTable":
        return cls(n, tuple(rule(p) for p in all_full_profiles(n)))

    @classmethod
    def from_mapping(cls, n: int, outcomes: Mapping[FullProfile, Alternative]) -> "FullTable":
        _check_full_size(n, len(outcomes))
        try:
            return cls._from_outcomes(n, _check_outcomes([outcomes[p] for p in all_full_profiles(n)]))
        except KeyError as missing:
            raise ValueError(f"table is missing profile {missing.args[0]}") from None

    def outcome(self, profile: FullProfile) -> Alternative:
        if len(profile) != self.n:
            raise ValueError(f"profile length {len(profile)} does not match n={self.n}")
        try:
            letters = "".join([_LETTER[p] for p in profile])
        except KeyError as bad:
            raise ValueError(f"profile item must be a Preference, got {bad.args[0]!r}") from None
        return self.outcomes[int(letters.translate(_BASE3), 3)]

    def items(self) -> Iterator[tuple[FullProfile, Alternative]]:
        return zip(all_full_profiles(self.n), self.outcomes)

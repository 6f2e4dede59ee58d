"""Core domain model: alternatives, profiles, quota sequences, outcome tables.

A society of n voters picks one of two alternatives.  Every voter declares
a preference for one of them, or indifference.  All the rules implemented
by this package are anonymous, so the working representation of a ballot
profile is the pair of support counts (na, nb) with na + nb <= n; the
remaining n - na - nb voters are indifferent.  Full per-voter profiles
exist only so that anonymity itself, and single-voter manipulation, can be
checked against the raw definitions.

Everything here is an immutable value; instances can be shared freely
between threads or tasks.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping
from enum import Enum
from functools import lru_cache
from operator import attrgetter


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


class _Value:
    """Immutable value over the fields named in a subclass's __slots__.

    Equal fields make equal, equally hashed values of one class; the repr
    is `Name(field=value, ...)`; assignment and deletion raise
    AttributeError.  Subclasses store their fields through this __init__,
    or with object.__setattr__ where values are built in hot loops.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the tuple of field values in one C call: tables are compared in hot loops
        cls._field_values = attrgetter(*cls.__slots__)

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._field_values(self) == other._field_values(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default reduction would restore the fields by assignment
        return type(self), self._field_values(self)


class Alternative(Enum):
    A = "a"
    B = "b"

    @property
    def other(self) -> "Alternative":
        return Alternative.B if self is Alternative.A else Alternative.A

    def __str__(self) -> str:
        return self.value


class Preference(Enum):
    """One voter's declaration: prefer a, prefer b, or indifferent."""

    A = "a"
    B = "b"
    INDIFFERENT = "i"

    def __str__(self) -> str:
        return self.value


#: The table and family file formats; here rather than in fileformats so
#: that the command line can offer them without loading that module.
TEXT = "text"
STRUCTURED = "structured"
FORMATS = (TEXT, STRUCTURED)

#: A full profile is one Preference per voter, in voter order.
FullProfile = tuple[Preference, ...]

PREFERENCES = (Preference.A, Preference.B, Preference.INDIFFERENT)


class CountProfile(_Value):
    """Anonymous profile summary: na supporters of a, nb of b, society size n."""

    __slots__ = ("na", "nb", "n")

    def __init__(self, na: int, nb: int, n: int) -> None:
        object.__setattr__(self, "na", na)
        object.__setattr__(self, "nb", nb)
        object.__setattr__(self, "n", n)
        if self.n < 1:
            raise ValueError(f"society size must be at least 1, got {self.n}")
        if self.na < 0 or self.nb < 0:
            raise ValueError(f"negative support count in ({self.na}, {self.nb})")
        if self.na + self.nb > self.n:
            raise ValueError(
                f"support counts ({self.na}, {self.nb}) exceed society size {self.n}"
            )

    @property
    def indifferent(self) -> int:
        return self.n - self.na - self.nb

    @property
    def is_strict(self) -> bool:
        return self.na + self.nb == self.n


def count_of(profile: FullProfile) -> CountProfile:
    """Summarize a full profile into its anonymous support counts."""
    na = sum(1 for p in profile if p is Preference.A)
    nb = sum(1 for p in profile if p is Preference.B)
    return CountProfile(na, nb, len(profile))


def count_table_size(n: int) -> int:
    """Number of distinct count profiles for a society of size n."""
    return (n + 1) * (n + 2) // 2


#: The most count profiles a table sized from n alone may have.  Refusing
#: larger n before anything is allocated keeps a hostile --n from
#: exhausting memory; n=5000 (12,507,501 profiles) is within it.
MAX_TABLE_PROFILES = 2**24


def check_table_size(n: int) -> None:
    """Raise SearchBudgetExceeded when a table for n would have too many profiles."""
    size = count_table_size(n)
    if size > MAX_TABLE_PROFILES:
        raise SearchBudgetExceeded(
            f"a table for n={n} has {size} profiles, budget is {MAX_TABLE_PROFILES}"
        )


# A mask is built as a string of '0'/'1' digits and parsed once: summing
# n shifted rows would cost n times the size of the mask.


def _prefix_rows(n: int, lengths: list[int]) -> int:
    """Grid mask whose row na holds the profiles nb < lengths[na]."""
    width = n + 2
    # most significant row first; about twice as fast as filling _blank_digits,
    # which matters where enumeration tabulates 2^(n+1) small tables
    return int("".join(["0" * (width - c) + "1" * c for c in reversed(lengths)]), 2)


def _blank_digits(n: int) -> bytearray:
    """All-'0' digits of the padded grid; character na*(n+2) + nb is profile (na, nb)."""
    return bytearray(b"0" * ((n + 1) * (n + 2)))


@lru_cache(maxsize=16)
def _diagonals(n: int) -> tuple[slice, ...]:
    """For each ell, the slice of the digits holding the profiles with ell
    indifferent voters, (j, n - ell - j) for j = 0, 1, ... in order."""
    return tuple(slice(n - ell, (n - ell) * (n + 2) + 1, n + 1) for ell in range(n + 1))


def _parse_digits(digits: bytearray) -> int:
    # character i is bit i, so the least significant digit comes first
    return int(digits[::-1], 2)


@lru_cache(maxsize=16)
def _grid(n: int) -> tuple[int, int]:
    """Width n+2 of the padded grid of profiles and the mask of its valid bits.

    Profile (na, nb) is bit na*(n+2) + nb.  The spare column n+1 is never
    valid, so no shift by less than a row wraps a profile into the next row.
    """
    return n + 2, _prefix_rows(n, [n + 1 - na for na in range(n + 1)])


@lru_cache(maxsize=64)
def all_count_profiles(n: int) -> tuple[CountProfile, ...]:
    """All count profiles for society size n, lexicographic by (na, nb)."""
    if n < 1:
        raise ValueError(f"society size must be at least 1, got {n}")
    return tuple(
        CountProfile(na, nb, n) for na in range(n + 1) for nb in range(n + 1 - na)
    )


def all_full_profiles(n: int) -> Iterator[FullProfile]:
    """All 3**n full profiles, in lexicographic (a, b, i) per-voter order."""
    if n < 1:
        raise ValueError(f"society size must be at least 1, got {n}")
    return itertools.product(PREFERENCES, repeat=n)


def _full_index(profile: FullProfile) -> int:
    # position of profile in all_full_profiles(len(profile)): base-3 digits a=0, b=1, i=2
    idx = 0
    for p in profile:
        idx = idx * 3 + (0 if p is Preference.A else 1 if p is Preference.B else 2)
    return idx


class QuotaSeq(_Value):
    """A defining sequence of quotas (k_0, ..., k_r) over {0, ..., n+1}.

    The only structural requirement is that some element lies in {0, n+1},
    which guarantees that evaluation terminates on every profile.  Stricter
    shapes (distinct entries, terminal at the end, proper zig-zag) are
    classified by the predicates in the engine module.
    """

    __slots__ = ("n", "quotas")

    def __init__(self, n: int, quotas: tuple[int, ...]) -> None:
        if n < 1:
            raise ValueError(f"society size must be at least 1, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "quotas", quotas if isinstance(quotas, tuple) else tuple(quotas))
        if not self.quotas:
            raise ValueError("quota sequence must be nonempty")
        for q in self.quotas:
            if not 0 <= q <= self.n + 1:
                raise ValueError(
                    f"quota {q} outside [0, {self.n + 1}] for society size {self.n}"
                )
        if not any(q in (0, self.n + 1) for q in self.quotas):
            raise ValueError(
                "quota sequence needs an element in {0, n+1}; "
                "otherwise some profiles are never decided"
            )

    def __str__(self) -> str:
        return ",".join(str(q) for q in self.quotas)


_DIGIT = {Alternative.A: b"1", Alternative.B: b"0"}
_OUTCOME = {"1": Alternative.A, "0": Alternative.B}
_LETTERS = str.maketrans("10", "ab")


class CountTable(_Value):
    """Total map from every count profile of a society to an alternative.

    The table is stored as the set of profiles that a wins, a bitmask over
    the padded grid of `_grid`: profile (na, nb) is bit na*(n+2) + nb.
    Equal tables have equal masks, which makes tables directly comparable
    and hashable; the outcomes in the all_count_profiles order are a view.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, outcomes: tuple[Alternative, ...]) -> None:
        if n < 1:
            raise ValueError(f"society size must be at least 1, got {n}")
        if len(outcomes) != count_table_size(n):
            raise ValueError(
                f"expected {count_table_size(n)} outcomes for n={n}, got {len(outcomes)}"
            )
        try:
            cells = b"".join([_DIGIT[o] for o in outcomes])
        except KeyError as bad:
            raise ValueError(f"outcome must be an Alternative, got {bad.args[0]!r}") from None
        width = n + 2
        digits = _blank_digits(n)
        start = 0
        for na in range(n + 1):
            stop = start + n + 1 - na
            digits[na * width : na * width + stop - start] = cells[start:stop]
            start = stop
        super().__init__(n, _parse_digits(digits))

    @classmethod
    def _from_mask(cls, n: int, mask: int) -> "CountTable":
        # trusted: the caller built mask inside the valid profiles of _grid(n)
        table = object.__new__(cls)
        object.__setattr__(table, "n", n)
        object.__setattr__(table, "mask", mask)
        return table

    def __reduce__(self):
        return CountTable._from_mask, (self.n, self.mask)

    @classmethod
    def _from_digits(cls, n: int, digits: bytearray) -> "CountTable":
        # trusted: the caller set digits only at valid profiles of the grid
        return cls._from_mask(n, _parse_digits(digits))

    @classmethod
    def from_function(cls, n: int, rule: Callable[[CountProfile], Alternative]) -> "CountTable":
        check_table_size(n)
        return cls(n, tuple(rule(p) for p in all_count_profiles(n)))

    @classmethod
    def from_mapping(cls, n: int, outcomes: Mapping[tuple[int, int], Alternative]) -> "CountTable":
        # checked before anything is allocated: n may come from an untrusted header
        if n < 1:
            raise ValueError(f"society size must be at least 1, got {n}")
        if len(outcomes) != count_table_size(n):
            raise ValueError(
                f"table for n={n} needs {count_table_size(n)} entries, got {len(outcomes)}"
            )
        # as many distinct keys as profiles, each a profile, is every profile once
        width = n + 2
        digits = _blank_digits(n)
        for (na, nb), outcome in outcomes.items():
            if na < 0 or nb < 0 or na + nb > n:
                raise ValueError(f"table entry ({na}, {nb}) is not a count profile for n={n}")
            if outcome is Alternative.A:
                digits[na * width + nb] = ord("1")
            elif outcome is not Alternative.B:
                raise ValueError(f"outcome must be an Alternative, got {outcome!r}")
        return cls._from_digits(n, digits)

    def bit_string(self) -> str:
        """The mask as '0'/'1' characters; character na*(n+2) + nb is profile (na, nb)."""
        n = self.n
        return format(self.mask, f"0{(n + 1) * (n + 2)}b")[::-1]

    def _cells(self) -> str:
        # one '0'/'1' per profile, in the all_count_profiles order
        n, width = self.n, self.n + 2
        bits = self.bit_string()
        return "".join([bits[na * width : na * width + n + 1 - na] for na in range(n + 1)])

    @property
    def outcomes(self) -> tuple[Alternative, ...]:
        """Outcomes in the all_count_profiles order."""
        return tuple(map(_OUTCOME.__getitem__, self._cells()))

    def outcome(self, na: int, nb: int) -> Alternative:
        if na < 0 or nb < 0 or na + nb > self.n:
            raise ValueError(f"({na}, {nb}) is not a count profile for n={self.n}")
        return Alternative.A if self.mask >> (na * (self.n + 2) + nb) & 1 else Alternative.B

    def items(self) -> Iterator[tuple[CountProfile, Alternative]]:
        return zip(all_count_profiles(self.n), self.outcomes)

    def outcome_string(self) -> str:
        """Outcomes as a compact 'abba...' string in canonical profile order."""
        return self._cells().translate(_LETTERS)


class FullTable(_Value):
    """Total map from every full profile of length n to an alternative."""

    __slots__ = ("n", "outcomes")

    def __init__(self, n: int, outcomes: tuple[Alternative, ...]) -> None:
        super().__init__(n, outcomes)
        if self.n < 1:
            raise ValueError(f"society size must be at least 1, got {self.n}")
        if len(self.outcomes) != 3**self.n:
            raise ValueError(
                f"expected {3 ** self.n} outcomes for n={self.n}, got {len(self.outcomes)}"
            )

    @classmethod
    def from_function(cls, n: int, rule: Callable[[FullProfile], Alternative]) -> "FullTable":
        return cls(n, tuple(rule(p) for p in all_full_profiles(n)))

    @classmethod
    def from_mapping(cls, n: int, outcomes: Mapping[FullProfile, Alternative]) -> "FullTable":
        if len(outcomes) != 3**n:
            raise ValueError(f"table for n={n} needs {3 ** n} entries, got {len(outcomes)}")
        try:
            return cls(n, tuple(outcomes[p] for p in all_full_profiles(n)))
        except KeyError as missing:
            raise ValueError(f"table is missing profile {missing.args[0]}") from None

    def outcome(self, profile: FullProfile) -> Alternative:
        if len(profile) != self.n:
            raise ValueError(f"profile length {len(profile)} does not match n={self.n}")
        return self.outcomes[_full_index(profile)]

    def items(self) -> Iterator[tuple[FullProfile, Alternative]]:
        return zip(all_full_profiles(self.n), self.outcomes)

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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, Mapping


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


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


#: A full profile is one Preference per voter, in voter order.
FullProfile = tuple[Preference, ...]

PREFERENCES = (Preference.A, Preference.B, Preference.INDIFFERENT)


@dataclass(frozen=True, slots=True)
class CountProfile:
    """Anonymous profile summary: na supporters of a, nb of b, society size n."""

    na: int
    nb: int
    n: int

    def __post_init__(self) -> None:
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


def _count_index(n: int, na: int, nb: int) -> int:
    # position of (na, nb) in all_count_profiles(n)
    return na * (n + 1) - na * (na - 1) // 2 + nb


def _full_index(profile: FullProfile) -> int:
    # position of profile in all_full_profiles(len(profile)): base-3 digits a=0, b=1, i=2
    idx = 0
    for p in profile:
        idx = idx * 3 + (0 if p is Preference.A else 1 if p is Preference.B else 2)
    return idx


@dataclass(frozen=True, slots=True)
class QuotaSeq:
    """A defining sequence of quotas (k_0, ..., k_r) over {0, ..., n+1}.

    The only structural requirement is that some element lies in {0, n+1},
    which guarantees that evaluation terminates on every profile.  Stricter
    shapes (distinct entries, terminal at the end, proper zig-zag) are
    classified by the predicates in the engine module.
    """

    n: int
    quotas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"society size must be at least 1, got {self.n}")
        if not isinstance(self.quotas, tuple):
            object.__setattr__(self, "quotas", tuple(self.quotas))
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


@dataclass(frozen=True, slots=True)
class CountTable:
    """Total map from every count profile of a society to an alternative.

    Outcomes are stored in the all_count_profiles order, which makes tables
    directly comparable and hashable.
    """

    n: int
    outcomes: tuple[Alternative, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"society size must be at least 1, got {self.n}")
        if len(self.outcomes) != count_table_size(self.n):
            raise ValueError(
                f"expected {count_table_size(self.n)} outcomes for n={self.n}, "
                f"got {len(self.outcomes)}"
            )

    @classmethod
    def from_function(cls, n: int, rule: Callable[[CountProfile], Alternative]) -> "CountTable":
        return cls(n, tuple(rule(p) for p in all_count_profiles(n)))

    @classmethod
    def from_mapping(cls, n: int, outcomes: Mapping[tuple[int, int], Alternative]) -> "CountTable":
        # checked before any profile list is built: n may come from an untrusted header
        if len(outcomes) != count_table_size(n):
            raise ValueError(
                f"table for n={n} needs {count_table_size(n)} entries, got {len(outcomes)}"
            )
        try:
            return cls(n, tuple(outcomes[(p.na, p.nb)] for p in all_count_profiles(n)))
        except KeyError as missing:
            raise ValueError(f"table is missing profile {missing.args[0]}") from None

    def outcome(self, na: int, nb: int) -> Alternative:
        if na < 0 or nb < 0 or na + nb > self.n:
            raise ValueError(f"({na}, {nb}) is not a count profile for n={self.n}")
        return self.outcomes[_count_index(self.n, na, nb)]

    def items(self) -> Iterator[tuple[CountProfile, Alternative]]:
        return zip(all_count_profiles(self.n), self.outcomes)

    def outcome_string(self) -> str:
        """Outcomes as a compact 'abba...' string in canonical profile order."""
        return "".join(o.value for o in self.outcomes)


@dataclass(frozen=True, slots=True)
class FullTable:
    """Total map from every full profile of length n to an alternative."""

    n: int
    outcomes: tuple[Alternative, ...]

    def __post_init__(self) -> None:
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

"""Core domain model: alternatives, count profiles and quota sequences.

A society of n voters picks one of two alternatives.  Every voter declares
a preference for one of them, or indifference.  All the rules implemented
by this package are anonymous, so the working representation of a ballot
profile is the pair of support counts (na, nb) with na + nb <= n; the
remaining n - na - nb voters are indifferent.

Everything here is an immutable value; instances can be shared freely
between threads or tasks.  Every command loads this module.  The tables,
and the full per-voter profiles they range over, live in `tables`, which
this module loads when one of their public names is first read here:
only the commands that build or read a table load it.
"""

from enum import Enum
from functools import lru_cache
from operator import attrgetter


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


class _Value:
    """Immutable value over the fields named in a subclass's __slots__.

    Equal fields make equal, equally hashed values of one class; assignment and deletion raise
    AttributeError; the repr is `Name(field=value, ...)`.  A subclass that checks nothing
    declares no __init__; one that checks its fields stores them through this one.  The slot
    setters that store the fields are bound once per class, in `_stores`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the tuple of field values in one C call: tables are compared in hot loops
        cls._field_values = attrgetter(*cls.__slots__)
        # the slot setters, which pass by the __setattr__ that refuses assignment
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values) -> None:
        for store, value in zip(self._stores, values, strict=True):
            store(self, value)

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


#: The table and family file formats; here rather than in fileformats so
#: that the command line can offer them without loading that module.
TEXT = "text"
STRUCTURED = "structured"
FORMATS = (TEXT, STRUCTURED)


def _check_society(n: int) -> None:
    if n < 1:
        raise ValueError(f"society size must be at least 1, got {n}")


def _check_quotas(n: int, quotas) -> None:
    for q in quotas:
        if not 0 <= q <= n + 1:
            raise ValueError(f"quota {q} outside [0, {n + 1}] for society size {n}")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _mirror(size: int, k: int) -> int:
    """Quota k with a and b swapped, among the `size` voters who are not indifferent.

    At least k of them support a exactly when fewer than the mirror support b.
    """
    return size + 1 - k


class CountProfile(_Value):
    """Anonymous profile summary: na supporters of a, nb of b, society size n."""

    __slots__ = ("na", "nb", "n")

    def __init__(self, na: int, nb: int, n: int) -> None:
        super().__init__(na, nb, n)
        _check_society(self.n)
        if self.na < 0 or self.nb < 0:
            raise ValueError(f"negative support count in ({self.na}, {self.nb})")
        if self.na + self.nb > self.n:
            raise ValueError(f"support counts ({self.na}, {self.nb}) exceed society size {self.n}")

    @property
    def indifferent(self) -> int:
        return self.n - self.na - self.nb


def count_table_size(n: int) -> int:
    """Number of distinct count profiles for a society of size n."""
    return (n + 1) * (n + 2) // 2


#: The most count profiles a table sized from n alone may have.  Refusing
#: larger n before anything is allocated keeps a hostile --n from
#: exhausting memory; n=5000 (12,507,501 profiles) is within it.
MAX_TABLE_PROFILES = 2**24

#: The most rules or tables a search over the whole family may build:
#: there are 2**(n+1) for n voters, so n=15 is the largest n searched.
MAX_RULES = 2**16


def check_table_size(n: int) -> None:
    """Raise SearchBudgetExceeded when a table for n would have too many profiles."""
    size = count_table_size(n)
    if size > MAX_TABLE_PROFILES:
        raise SearchBudgetExceeded(
            f"a table for n={n} has {size} profiles, budget is {MAX_TABLE_PROFILES}"
        )


@lru_cache(maxsize=4)  # an entry holds (n+1)(n+2)/2 profiles, 41 MB at n=1000
def all_count_profiles(n: int) -> tuple[CountProfile, ...]:
    """All count profiles for society size n, lexicographic by (na, nb)."""
    _check_society(n)
    return tuple(
        CountProfile(na, nb, n) for na in range(n + 1) for nb in range(n + 1 - na)
    )


def _trusted(cls, n: int, value):
    """The one builder past __init__: a `cls` of the fields (n, value) that its caller checked."""
    built = object.__new__(cls)
    store_n, store_value = cls._stores
    store_n(built, n)
    store_value(built, value)
    return built


class QuotaSeq(_Value):
    """A defining sequence of quotas (k_0, ..., k_r) over {0, ..., n+1}.

    The only structural requirement is that some element lies in {0, n+1},
    which guarantees that evaluation terminates on every profile.  Stricter
    shapes (distinct entries, terminal at the end, proper zig-zag) are
    classified by the predicates in the engine module.
    """

    __slots__ = ("n", "quotas")

    def __init__(self, n: int, quotas: tuple[int, ...]) -> None:
        _check_society(n)
        super().__init__(n, quotas if isinstance(quotas, tuple) else tuple(quotas))
        if not self.quotas:
            raise ValueError("quota sequence must be nonempty")
        _check_quotas(n, self.quotas)
        if 0 not in self.quotas and n + 1 not in self.quotas:
            raise ValueError(
                "quota sequence needs an element in {0, n+1}; "
                "otherwise some profiles are never decided"
            )

    # trusted: n >= 1 and the caller built quotas, a tuple over [0, n+1] with a terminal
    _trusted = classmethod(_trusted)

    def __str__(self) -> str:
        return ",".join(map(str, self.quotas))


def __getattr__(name: str):
    from . import _EXPORTS
    # only the public names: the rest of the table layer is read from `tables`
    if name not in _EXPORTS["tables"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tables
    globals()[name] = value = getattr(tables, name)
    return value

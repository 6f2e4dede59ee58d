"""The value contract every immutable class of the package keeps.

Each class compares and hashes by its fields, refuses assignment and
deletion, prints as `Name(field=value, ...)`, and survives pickle and
deepcopy.
"""

import copy
import pickle
from types import SimpleNamespace

import pytest

from quotamaj import (
    Alternative,
    CountManipulation,
    CountProfile,
    CountTable,
    FullManipulation,
    FullTable,
    LKSequence,
    LPRule,
    Preference,
    QuotaSeq,
    expand_to_full,
    to_table,
)

A, B = Alternative.A, Alternative.B
PA, PB, PI = Preference.A, Preference.B, Preference.INDIFFERENT


def majority(n):
    return to_table(QuotaSeq(n, (n // 2 + 1, n + 1)))


# class -> (field names, a factory of one value, a factory of an unequal value)
VALUES = {
    CountProfile: (("na", "nb", "n"), lambda: CountProfile(1, 2, 4), lambda: CountProfile(2, 1, 4)),
    QuotaSeq: (("n", "quotas"), lambda: QuotaSeq(11, (5, 2, 12)), lambda: QuotaSeq(11, (5, 12))),
    CountTable: (("n", "mask"), lambda: to_table(QuotaSeq(3, (2, 4))), lambda: to_table(QuotaSeq(3, (1, 4)))),
    FullTable: (("n", "mask"), lambda: expand_to_full(majority(2)), lambda: expand_to_full(to_table(QuotaSeq(2, (0,))))),
    CountManipulation: (
        ("profile", "truthful", "misreport", "honest_outcome", "manipulated_outcome"),
        lambda: CountManipulation(CountProfile(1, 1, 3), PB, PA, A, B),
        lambda: CountManipulation(CountProfile(1, 1, 3), PB, PI, A, B),
    ),
    FullManipulation: (
        ("profile", "voter", "misreport", "honest_outcome", "manipulated_outcome"),
        lambda: FullManipulation((PA, PB, PI), 1, PI, A, B),
        lambda: FullManipulation((PA, PB, PI), 0, PI, B, A),
    ),
    LKSequence: (
        ("n", "default", "pairs"),
        lambda: LKSequence(11, B, ((0, 5), (1, 4), (2, 3), (3, 2))),
        lambda: LKSequence(11, B, ((0, 5), (1, 4))),
    ),
    LPRule: (
        ("n", "default", "r", "thresholds"),
        lambda: LPRule(n=3, default=A, r=3, thresholds=(1, 1, 2)),
        lambda: LPRule(n=3, default=A, r=3, thresholds=(1, 2, 2)),
    ),
}

CLASSES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


@CLASSES
def test_equal_fields_give_equal_values_and_hashes(cls):
    names, make, other = VALUES[cls]
    first, second = make(), make()
    assert type(first) is cls and first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    different = other()
    assert fields_of(different, names) != fields_of(first, names)
    assert first != different and not first == different


@CLASSES
def test_an_object_of_another_class_with_the_same_fields_is_not_equal(cls):
    names, make, _ = VALUES[cls]
    value = make()
    lookalike = SimpleNamespace(**{name: getattr(value, name) for name in names})
    assert value != lookalike and lookalike != value
    assert value != fields_of(value, names)


@CLASSES
def test_assignment_and_deletion_raise(cls):
    names, make, _ = VALUES[cls]
    value = make()
    before = fields_of(value, names)
    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert fields_of(value, names) == before


@CLASSES
def test_no_attribute_can_be_added(cls):
    value = VALUES[cls][1]()
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        value.extra = 1


@CLASSES
def test_repr_names_every_field(cls):
    names, make, _ = VALUES[cls]
    value = make()
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{cls.__name__}({shown})"


def test_repr_examples():
    assert repr(QuotaSeq(11, (5, 2, 12))) == "QuotaSeq(n=11, quotas=(5, 2, 12))"
    assert repr(CountProfile(1, 2, 4)) == "CountProfile(na=1, nb=2, n=4)"
    assert repr(to_table(QuotaSeq(1, (2,)))) == "CountTable(n=1, mask=0)"


@CLASSES
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(cls, protocol):
    names, make, _ = VALUES[cls]
    value = make()
    copied = pickle.loads(pickle.dumps(value, protocol=protocol))
    assert type(copied) is cls and copied == value and hash(copied) == hash(value)
    assert fields_of(copied, names) == fields_of(value, names)


@CLASSES
def test_copy_and_deepcopy_round_trip(cls):
    names, make, _ = VALUES[cls]
    value = make()
    for copied in (copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value
        assert fields_of(copied, names) == fields_of(value, names)


def test_copied_table_keeps_its_outcomes():
    table = majority(5)
    copied = copy.deepcopy(table)
    assert copied.outcomes == table.outcomes
    assert copied.outcome_string() == table.outcome_string()

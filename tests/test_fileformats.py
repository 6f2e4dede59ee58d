import pytest

from quotamaj import Alternative, CountTable, FullTable, Preference, QuotaSeq, to_table
from quotamaj.fileformats import (
    STRUCTURED,
    format_count_table,
    format_family,
    format_full_table,
    format_sequence,
    parse_sequence,
    parse_table,
)
from quotamaj.enumeration import enumerate_all, proper_to_subset

A, B = Alternative.A, Alternative.B


def majority3():
    return CountTable.from_function(3, lambda p: A if p.na > p.nb else B)


def test_count_table_text_round_trip():
    table = majority3()
    text = format_count_table(table)
    assert text.splitlines()[0] == "n=3"
    assert "1 0 a" in text
    assert parse_table(text) == table


def test_count_table_structured_round_trip():
    table = to_table(QuotaSeq(11, (5, 2, 12)))
    assert parse_table(format_count_table(table, STRUCTURED)) == table


def test_full_table_round_trips():
    table = FullTable.from_function(
        2, lambda prof: A if prof[0] is Preference.A else B
    )
    assert parse_table(format_full_table(table)) == table
    assert parse_table(format_full_table(table, STRUCTURED)) == table


def test_text_golden_small():
    table = CountTable.from_function(1, lambda p: A if p.na else B)
    assert format_count_table(table) == "n=1\n0 0 b\n0 1 b\n1 0 a\n"


def test_parse_accepts_shuffled_lines():
    shuffled = "n=1\n1 0 a\n0 0 b\n0 1 b\n"
    table = parse_table(shuffled)
    assert table.outcome(1, 0) is A


def test_parse_rejects_bad_tables():
    with pytest.raises(ValueError):
        parse_table("")
    with pytest.raises(ValueError):
        parse_table("n=1\n0 0 b\n0 1 b\n")  # missing profile
    with pytest.raises(ValueError):
        parse_table("n=1\n0 0 b\n0 0 a\n1 0 a\n")  # duplicate, incomplete
    with pytest.raises(ValueError):
        parse_table("n=1\n0 0 c\n0 1 b\n1 0 a\n")  # bad outcome letter
    with pytest.raises(ValueError):
        parse_table("n=1\nmissing header\n")
    with pytest.raises(ValueError):
        parse_table('{"entries": []}')
    with pytest.raises(ValueError):
        parse_table('{"n": 1, "entries": [{"a": 0}]}')


def test_sequence_round_trip():
    seq = QuotaSeq(11, (5, 2, 12))
    assert format_sequence(seq) == "n=11\n5,2,12\n"
    assert parse_sequence(format_sequence(seq)) == seq
    with pytest.raises(ValueError):
        parse_sequence("n=11\n")
    with pytest.raises(ValueError):
        parse_sequence("n=11\nfive\n")


def test_family_format_golden_n1():
    family = enumerate_all(1)
    text = format_family(family, 1)
    assert text == (
        "n=1\n"
        "count=4\n"
        "b - 2 bbb\n"
        "b 1 1,2 bba\n"
        "a - 0 aaa\n"
        "a 1 1,0 aba\n"
    )


def test_structured_family_is_what_json_writes():
    import json
    for family, n in ((enumerate_all(2), 2), ([], 3)):
        entries = [
            {
                "default": default.value,
                "subset": sorted(subset),
                "quotas": list(seq.quotas),
                "table": table.outcome_string(),
            }
            for seq, table in family
            for subset, default in [proper_to_subset(seq)]
        ]
        expected = json.dumps({"n": n, "count": len(family), "family": entries}, indent=2)
        assert format_family(family, n, STRUCTURED) == expected
    assert format_family([], 3) == "n=3\ncount=0\n"

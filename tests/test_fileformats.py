import json
import random
import re

import pytest
from test_fileformats_reference import (
    full_profiles,
    plain,
    reference_format_count_table,
    reference_format_full_table,
    reference_parse_table,
    verdict,
)

from quotamaj import Alternative, CountTable, FullTable, QuotaSeq, cli, fileformats, tables, to_table
from quotamaj.cli import INVALID_INPUT
from quotamaj.fileformats import (
    STRUCTURED,
    TEXT,
    format_count_table,
    format_family,
    format_full_table,
    format_sequence,
    parse_sequence,
    parse_table,
)
from quotamaj.enumeration import enumerate_all, proper_to_subset, subset_to_proper
from quotamaj.oracle import expand_to_full, find_manipulation, find_manipulation_full, reduce_to_counts

from helpers import count_profiles, majority3, reference_family_file

A, B = Alternative.A, Alternative.B


def test_structured_table_with_no_entries_is_refused():
    with pytest.raises(ValueError, match="^'entries' must be a nonempty list$"):
        parse_table('{"n": 1, "entries": []}')


def test_sequence_round_trip():
    seq = QuotaSeq(11, (5, 2, 12))
    assert format_sequence(seq) == "n=11\n5,2,12\n"
    assert parse_sequence(format_sequence(seq)) == seq


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
    for family, n in ((enumerate_all(2), 2), ([], 3)):
        assert format_family(family, n, STRUCTURED) == reference_family_file([seq for seq, _ in family], n, STRUCTURED)
    assert format_family([], 3) == "n=3\ncount=0\n"


@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
def test_format_family_on_any_family(fmt):
    # a shuffled part of the family holds both empty subsets, and its
    # defaults switch more than once; the empty family has no entries
    family = enumerate_all(4)
    rng = random.Random(2020)
    part = [family[0], family[16], *rng.sample(family[1:16] + family[17:], 12)]
    rng.shuffle(part)
    defaults = [proper_to_subset(seq)[1] for seq, _ in part]
    assert sum(x is not y for x, y in zip(defaults, defaults[1:])) > 1
    for rules in (part, []):
        assert format_family(iter(rules), 4, fmt) == reference_family_file([seq for seq, _ in rules], 4, fmt)


@pytest.mark.parametrize("fmt", ["xml", "josn", "", "TEXT"])
def test_every_writer_refuses_an_unknown_format(fmt):
    # no writer falls back to text; the command line offers only core.FORMATS
    from quotamaj.enumeration import _family_file

    count = majority3()
    writers = (
        lambda: format_count_table(count, fmt),
        lambda: format_full_table(expand_to_full(count), fmt),
        lambda: format_family(enumerate_all(2), 2, fmt),
        lambda: _family_file(2, fmt),
    )
    for write in writers:
        with pytest.raises(ValueError, match=f"^unknown format {fmt!r}$"):
            write()


# Files in the canonical profile order are built from whole columns, and
# every other goes through the per-entry checks; the tests below reach
# sizes that the reference agreement tests, which stop at n <= 3, never do.


def random_table(kind, n, seed):
    rng = random.Random(seed)
    if kind == "count":
        size = (n + 1) * (n + 2) // 2
        return CountTable(n, tuple(rng.choice((A, B)) for _ in range(size)))
    return FullTable(n, tuple(rng.choice((A, B)) for _ in range(3**n)))


def table_file(kind, n, fmt, seed=0):
    write = format_count_table if kind == "count" else format_full_table
    return write(random_table(kind, n, seed), fmt)


def split_file(text):
    """A table file's entries, as token lists or JSON objects, and the
    function that writes a file of the same header from entries."""
    if text.startswith("{"):
        data = json.loads(text)
        return data["entries"], lambda entries: json.dumps({**data, "entries": entries})
    header, *body = text.splitlines()
    return [line.split() for line in body], lambda entries: "\n".join([header, *map(" ".join, entries)]) + "\n"


def recording_whole_table(monkeypatch):
    """The tables, or None, that the whole-table path returns from now on."""
    results = []
    whole = fileformats._whole_table

    def recording(*args):
        results.append(whole(*args))
        return results[-1]

    monkeypatch.setattr(fileformats, "_whole_table", recording)
    return results


@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
@pytest.mark.parametrize("kind, n", [("count", 40), ("count", 140), ("full", 6)])
def test_canonical_and_shuffled_files_give_the_same_table(monkeypatch, kind, n, fmt):
    text = table_file(kind, n, fmt)
    entries, write = split_file(text)
    random.Random(n).shuffle(entries)
    results = recording_whole_table(monkeypatch)
    assert parse_table(text) == parse_table(write(entries)) == random_table(kind, n, 0)
    assert results[0] == random_table(kind, n, 0) and results[1] is None


def counting_table_checks(monkeypatch, size_check="_check_full_size"):
    """How often the size check of a table kind and the outcome check run
    from now on; `_build_table` imports them when it is called, so it runs these."""
    counts = dict.fromkeys((size_check, "_check_outcomes"), 0)
    for name in counts:
        def counting(*args, name=name, check=getattr(tables, name)):
            counts[name] += 1
            return check(*args)

        monkeypatch.setattr(tables, name, counting)
    return counts


@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
@pytest.mark.parametrize("shuffle", [False, True])
def test_a_full_table_read_checks_its_size_once_and_no_outcome_again(monkeypatch, fmt, shuffle):
    # both reader paths check every outcome token, and the size before either
    # path, so the table is built past FullTable's own checks
    expected = random_table("full", 3, 0)
    entries, write = split_file(table_file("full", 3, fmt))
    if shuffle:
        random.Random(3).shuffle(entries)
    results = recording_whole_table(monkeypatch)
    counts = counting_table_checks(monkeypatch)
    table = parse_table(write(entries))
    assert counts == {"_check_full_size": 1, "_check_outcomes": 0}
    assert (results[0] is None) is shuffle
    assert table == expected and all(o is A or o is B for o in table.outcomes)


@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
@pytest.mark.parametrize("shuffle", [False, True])
def test_a_count_table_read_checks_its_size_at_most_once_and_no_outcome_again(monkeypatch, fmt, shuffle):
    # the whole-table path compares the size itself; the per-entry path checks
    # it once after the entries, whose outcome tokens it has already parsed
    expected = random_table("count", 5, 0)
    entries, write = split_file(table_file("count", 5, fmt))
    if shuffle:
        random.Random(5).shuffle(entries)
    results = recording_whole_table(monkeypatch)
    counts = counting_table_checks(monkeypatch, "_check_count_size")
    table = parse_table(write(entries))
    assert counts == {"_check_count_size": int(shuffle), "_check_outcomes": 0}
    assert (results[0] is None) is shuffle
    assert table == expected


def test_reduce_to_counts_checks_no_outcome_again(monkeypatch):
    count = random_table("count", 5, 0)
    full = expand_to_full(count)
    counts = counting_table_checks(monkeypatch)
    assert reduce_to_counts(full) == count
    assert counts["_check_outcomes"] == 0


@pytest.mark.parametrize("value, field, at", [(True, "b", 1), (False, "a", 0), (1.0, "b", 1)])
def test_json_counts_equal_to_ints_are_still_refused(tmp_path, capsys, value, field, at):
    # true, false and 1.0 compare equal to the ints 1, 0 and 1 of the canonical columns
    entries, write = split_file(table_file("count", 40, STRUCTURED))
    assert entries[at][field] == value
    entries[at][field] = value
    path = tmp_path / "table.json"
    path.write_text(write(entries))
    code = cli.main(["verify", "--table", str(path)])
    captured = capsys.readouterr()
    assert code == INVALID_INPUT and captured.out == ""
    assert captured.err == f"error: support counts must be integers: {entries[at]!r}\n"


def fault(kind, fmt, how, entries):
    """Apply one fault to a copy of the entries of a canonical file."""
    entries = [dict(e) if isinstance(e, dict) else list(e) for e in entries]
    keys = ["profile"] if kind == "full" else ["a", "b"]
    if how == "outcome-c":
        entries[7]["out" if fmt == STRUCTURED else -1] = "c"
    elif how == "count-01":
        entries[1][1] = "0" + entries[1][1]
    elif how == "duplicate":
        for key in keys if fmt == STRUCTURED else range(len(keys)):
            entries[9][key] = entries[5][key]
    elif how == "extra":
        entries.append(entries[3])
    elif how == "missing":
        del entries[len(entries) // 2]
    return entries


@pytest.mark.parametrize(
    "kind, n, fmt, how",
    [
        (kind, n, fmt, how)
        for kind, n in (("count", 40), ("full", 6))
        for fmt in (TEXT, STRUCTURED)
        for how in ("outcome-c", "duplicate", "extra", "missing")
    ]
    # a count with a leading zero, which int() reads, exists only in text
    + [("count", 40, TEXT, "count-01")],
)
def test_faults_in_canonical_files_get_the_reference_verdict(kind, n, fmt, how):
    entries, write = split_file(table_file(kind, n, fmt))
    text = write(fault(kind, fmt, how, entries))
    ours = verdict(lambda t: plain(parse_table(t)), text)
    assert ours == verdict(reference_parse_table, text)
    assert ours[0] == ("table" if how == "count-01" else "error")


# files whose entry count does not match their header, each with its refusal
HEADER_MISMATCHES = {
    "n=1000000\n0 0 b\n0 1 b\n1 0 a\n": "table for n=1000000 needs 500001500001 entries, got 3",
    "n=40\na b\nb b\ni a\n": "table for n=40 needs 3**40 entries, got 3",
    '{"n": 40, "entries": [{"a": 0, "b": 0, "out": "b"}, {"a": 0, "b": 1, "out": "b"}, {"a": 1, "b": 0, "out": "a"}]}': (
        "table for n=40 needs 861 entries, got 3"
    ),
}


@pytest.mark.parametrize("text", list(HEADER_MISMATCHES))
def test_no_canonical_columns_for_a_header_the_entry_count_does_not_match(text, monkeypatch):
    calls = []
    keys = tables._canonical_keys
    monkeypatch.setattr(tables, "_canonical_keys", lambda *args: calls.append(args) or keys(*args))
    with pytest.raises(ValueError, match=f"^{re.escape(HEADER_MISMATCHES[text])}$"):
        parse_table(text)
    assert calls == []


def test_formatting_tables_for_many_sizes_keeps_a_few_profile_lists():
    from quotamaj import core

    for n in range(1, 40):
        for fmt in (TEXT, STRUCTURED):
            format_count_table(to_table(QuotaSeq(n, (n + 1,))), fmt)
    info = core.all_count_profiles.cache_info()
    assert info.maxsize <= 4 and info.currsize <= info.maxsize


# The writers that zip the canonical key columns with the outcome letters
# must write the bytes of the reference writers, which build one entry per
# profile from their own profile lists.


def reference_file(table, fmt):
    letters = [o.value for o in table.outcomes]
    if isinstance(table, CountTable):
        return reference_format_count_table(table.n, zip(count_profiles(table.n), letters), fmt)
    return reference_format_full_table(table.n, zip(full_profiles(table.n), letters), fmt)


def writer_tables(n, seed):
    """A constant, a strategy-proof and a manipulable count table for n."""
    rng = random.Random(seed)
    subset = {v for v in range(1, n + 1) if rng.random() < 0.5}
    proper = to_table(subset_to_proper(subset, rng.choice((A, B)), n))
    manipulable = random_table("count", n, seed)
    while find_manipulation(manipulable) is None:  # a coin-flip table almost never is strategy-proof
        seed += 1
        manipulable = random_table("count", n, seed)
    assert find_manipulation(proper) is None
    return to_table(QuotaSeq(n, (n + 1,))), proper, manipulable


@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
@pytest.mark.parametrize("n", range(1, 13))
def test_count_table_writer_writes_the_reference_bytes(n, fmt):
    for table in writer_tables(n, seed=n):
        assert format_count_table(table, fmt) == reference_file(table, fmt)


@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
@pytest.mark.parametrize("n", range(1, 6))
def test_full_table_writer_writes_the_reference_bytes(n, fmt):
    constant, proper, _ = map(expand_to_full, writer_tables(n, seed=n))
    manipulable = random_table("full", n, n)
    assert find_manipulation_full(proper) is None and find_manipulation_full(manipulable) is not None
    for table in (constant, proper, manipulable):
        assert format_full_table(table, fmt) == reference_file(table, fmt)


@pytest.mark.slow
def test_count_table_writer_writes_the_reference_json_at_n1000():
    table = random_table("count", 1000, 1000)
    assert format_count_table(table, STRUCTURED) == reference_file(table, STRUCTURED)


def test_the_count_table_writer_builds_no_count_profiles():
    from quotamaj import core

    table = to_table(QuotaSeq(30, (15, 31)))
    core.all_count_profiles.cache_clear()
    for fmt in (TEXT, STRUCTURED):
        format_count_table(table, fmt)
    assert core.all_count_profiles.cache_info().currsize == 0

"""The table reader and writer against reference copies of their earlier form.

The `reference_*` functions are the four hand-written table parsers and
writers that `fileformats` had before one reader per format and one
builder replaced them, with the checks they called inlined.  They share
no code with the library: a parsed table comes back as plain data, the
kind, n and a dict from profile (an (na, nb) pair or an a/b/i string) to
the outcome letter.  The library must give equal tables, byte-equal files
and the same error message on every input, except the two messages for
JSON full entries that were mended (see MENDED_MESSAGES).
"""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotamaj import Alternative, CountTable, FullTable
from quotamaj.cli import INVALID_INPUT
from quotamaj.fileformats import STRUCTURED, TEXT, format_count_table, format_full_table, parse_table

from helpers import run

LETTER = {"a": Alternative.A, "b": Alternative.B}


def reference_check_full_size(n, entries):
    if n < 1:
        raise ValueError(f"society size must be at least 1, got {n}")
    if n >= entries.bit_length() or 3**n != entries:
        raise ValueError(f"table for n={n} needs 3**{n} entries, got {entries}")


def reference_parse_outcome(token):
    if token not in ("a", "b"):
        raise ValueError(f"outcome must be 'a' or 'b', got {token!r}")
    return token


def reference_parse_profile_string(token, n):
    if len(token) != n:
        raise ValueError(f"profile {token!r} does not have length {n}")
    if not all(c in ("a", "b", "i") for c in token):
        raise ValueError(f"profile {token!r} has characters outside a/b/i")
    return token


def reference_parse_header(line):
    if not line.startswith("n="):
        raise ValueError(f"expected a 'n=<size>' header, got {line!r}")
    try:
        return int(line[2:])
    except ValueError:
        raise ValueError(f"bad society size in header {line!r}") from None


def reference_count_from_mapping(n, entries):
    if n < 1:
        raise ValueError(f"society size must be at least 1, got {n}")
    size = (n + 1) * (n + 2) // 2
    if len(entries) != size:
        raise ValueError(f"table for n={n} needs {size} entries, got {len(entries)}")
    for na, nb in entries:
        if na < 0 or nb < 0 or na + nb > n:
            raise ValueError(f"table entry ({na}, {nb}) is not a count profile for n={n}")
    return "count", n, entries


def reference_full_from_mapping(n, entries):
    reference_check_full_size(n, len(entries))
    return "full", n, entries


def reference_parse_table(text):
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return reference_parse_structured(stripped)
    return reference_parse_text(text)


def reference_parse_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table file")
    n = reference_parse_header(lines[0])
    body = [ln.split() for ln in lines[1:]]
    if any(len(parts) not in (2, 3) for parts in body):
        raise ValueError("table lines must be 'na nb outcome' or '<profile> outcome'")
    if all(len(parts) == 3 for parts in body):
        entries = {}
        for na_tok, nb_tok, out_tok in body:
            try:
                key = (int(na_tok), int(nb_tok))
            except ValueError:
                raise ValueError(f"bad counts {na_tok!r} {nb_tok!r}") from None
            if key in entries:
                raise ValueError(f"duplicate entry for profile {key}")
            entries[key] = reference_parse_outcome(out_tok)
        return reference_count_from_mapping(n, entries)
    if all(len(parts) == 2 for parts in body):
        reference_check_full_size(n, len(body))
        full_entries = {}
        for prof_tok, out_tok in body:
            profile = reference_parse_profile_string(prof_tok, n)
            if profile in full_entries:
                raise ValueError(f"duplicate entry for profile {prof_tok!r}")
            full_entries[profile] = reference_parse_outcome(out_tok)
        return reference_full_from_mapping(n, full_entries)
    raise ValueError("table mixes count-profile and full-profile lines")


def reference_is_json_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def reference_parse_structured(text):
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ValueError(f"bad JSON table: {err}") from None
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ValueError("structured table needs 'n' and 'entries' fields")
    n = data["n"]
    if not reference_is_json_int(n):
        raise ValueError(f"society size must be an integer, got {n!r}")
    entries = data["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a nonempty list")
    if all(isinstance(e, dict) and "profile" in e for e in entries):
        reference_check_full_size(n, len(entries))
        full_entries = {}
        for e in entries:
            profile = reference_parse_profile_string(str(e["profile"]), n)
            if profile in full_entries:
                raise ValueError(f"duplicate entry for profile {e['profile']!r}")
            full_entries[profile] = reference_parse_outcome(str(e.get("out")))
        return reference_full_from_mapping(n, full_entries)
    count_entries = {}
    for e in entries:
        if not isinstance(e, dict) or "a" not in e or "b" not in e or "out" not in e:
            raise ValueError(f"count entry needs 'a', 'b' and 'out' fields: {e!r}")
        key = (e["a"], e["b"])
        if not all(reference_is_json_int(count) for count in key):
            raise ValueError(f"support counts must be integers: {e!r}")
        if key in count_entries:
            raise ValueError(f"duplicate entry for profile {key}")
        count_entries[key] = reference_parse_outcome(str(e["out"]))
    return reference_count_from_mapping(n, count_entries)


def reference_format_count_table(n, rows, fmt=TEXT):
    """rows: ((na, nb), outcome letter) in the canonical profile order."""
    if fmt == STRUCTURED:
        return json.dumps(
            {"n": n, "entries": [{"a": na, "b": nb, "out": o} for (na, nb), o in rows]},
            indent=2,
        )
    lines = [f"n={n}"]
    lines += [f"{na} {nb} {o}" for (na, nb), o in rows]
    return "\n".join(lines) + "\n"


def reference_format_full_table(n, rows, fmt=TEXT):
    """rows: (profile string, outcome letter) in the canonical profile order."""
    if fmt == STRUCTURED:
        return json.dumps(
            {"n": n, "entries": [{"profile": p, "out": o} for p, o in rows]},
            indent=2,
        )
    lines = [f"n={n}"]
    lines += [f"{p} {o}" for p, o in rows]
    return "\n".join(lines) + "\n"


def count_profiles(n):
    return [(na, nb) for na in range(n + 1) for nb in range(n + 1 - na)]


def full_profiles(n):
    return ["".join(p) for p in itertools.product("abi", repeat=n)]


def library_table(kind, n, letters):
    outcomes = tuple(LETTER[c] for c in letters)
    return CountTable(n, outcomes) if kind == "count" else FullTable(n, outcomes)


def plain(table):
    """A library table as the reference's plain data."""
    if isinstance(table, CountTable):
        return "count", table.n, {(p.na, p.nb): o.value for p, o in table.items()}
    return "full", table.n, {"".join(v.value for v in p): o.value for p, o in table.items()}


def formatted(kind, n, letters, fmt):
    """The library's and the reference's file for one table."""
    if kind == "count":
        rows = list(zip(count_profiles(n), letters))
        return (
            format_count_table(library_table(kind, n, letters), fmt),
            reference_format_count_table(n, rows, fmt),
        )
    rows = list(zip(full_profiles(n), letters))
    return (
        format_full_table(library_table(kind, n, letters), fmt),
        reference_format_full_table(n, rows, fmt),
    )


def every_table():
    for kind, sizes in (("count", range(1, 4)), ("full", range(1, 3))):
        for n in sizes:
            size = len(count_profiles(n) if kind == "count" else full_profiles(n))
            for letters in itertools.product("ab", repeat=size):
                yield kind, n, "".join(letters)


@pytest.mark.parametrize("fmt", [TEXT, STRUCTURED])
def test_every_small_table_agrees_with_the_reference(fmt):
    tables = 0
    for kind, n, letters in every_table():
        ours, theirs = formatted(kind, n, letters, fmt)
        assert ours == theirs
        table = parse_table(ours)
        assert table == library_table(kind, n, letters)
        assert plain(table) == reference_parse_table(ours)
        tables += 1
    # count tables for n = 1, 2, 3 and full tables for n = 1, 2
    assert tables == 2**3 + 2**6 + 2**10 + 2**3 + 2**9


def shuffled(text, rng):
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        rng.shuffle(data["entries"])
        return json.dumps(data)
    header, *body = text.splitlines()
    rng.shuffle(body)
    return "\n".join([header, *body]) + "\n"


def test_shuffled_lines_agree_with_the_reference():
    rng = random.Random(9)
    for kind, n, letters in every_table():
        if rng.random() < 0.1:
            for fmt in (TEXT, STRUCTURED):
                text = shuffled(formatted(kind, n, letters, fmt)[0], rng)
                table = parse_table(text)
                assert table == library_table(kind, n, letters)
                assert plain(table) == reference_parse_table(text)


def verdict(parse, text):
    try:
        return "table", parse(text)
    except ValueError as err:
        return "error", str(err)


# The reference's message and the mended one, for the two inputs whose
# message changed: a full JSON entry whose profile is not a string, and one
# without an "out" field.
MENDED_MESSAGES = (
    ("profile ", "profile must be a string, got "),
    ("outcome must be 'a' or 'b', got 'None'", "full entry needs 'profile' and 'out' fields: "),
)


def same_verdict(ours, theirs):
    if ours == theirs:
        return True
    if ours[0] != "error" or theirs[0] != "error":
        return False
    return any(
        theirs[1].startswith(old) and ours[1].startswith(new) for old, new in MENDED_MESSAGES
    )


@st.composite
def small_tables(draw):
    kind = draw(st.sampled_from(["count", "full"]))
    n = draw(st.integers(1, 3 if kind == "count" else 2))
    size = len(count_profiles(n) if kind == "count" else full_profiles(n))
    letters = "".join(draw(st.lists(st.sampled_from("ab"), min_size=size, max_size=size)))
    return formatted(kind, n, letters, draw(st.sampled_from([TEXT, STRUCTURED])))[0]


# characters that int(_, 3) or str.split treat specially, next to the format's own
FAULTS = "abi012_+- \n{}[]\":,x١"


@st.composite
def mangled_tables(draw):
    """A well-formed table file with one mutation: one character replaced,
    deleted or inserted, or one line deleted, repeated or moved."""
    text = draw(small_tables())
    # positions come from a seeded Random: drawn integers would favour the header
    rng = random.Random(draw(st.integers(0, 2**32)))
    how = draw(st.sampled_from(["replace", "delete", "insert", "drop", "repeat", "move"]))
    if how in ("replace", "delete", "insert"):
        at = rng.randrange(len(text) + (how == "insert"))
        new = "" if how == "delete" else draw(st.sampled_from(FAULTS))
        return text[:at] + new + text[at + (how != "insert") :]
    lines = text.splitlines(keepends=True)
    line = lines.pop(rng.randrange(len(lines)))
    if how == "repeat":
        lines.insert(rng.randrange(len(lines) + 1), line)
    if how != "drop":
        lines.insert(rng.randrange(len(lines) + 1), line)
    return "".join(lines)


def full_n1_json(first):
    rest = [{"profile": "b", "out": "b"}, {"profile": "i", "out": "b"}]
    return json.dumps({"n": 1, "entries": [first, *rest]})


@settings(max_examples=400, deadline=None)
@given(mangled_tables())
@example(full_n1_json({"profile": ["a"], "out": "a"}))
@example(full_n1_json({"profile": "a"}))
@example(full_n1_json({"profile": "a", "out": None}))
def test_mangled_tables_agree_with_the_reference(text):
    ours = verdict(lambda t: plain(parse_table(t)), text)
    assert same_verdict(ours, verdict(reference_parse_table, text))


def full_majority3(fmt):
    letters = ["a" if p.count("a") > p.count("b") else "b" for p in full_profiles(3)]
    return reference_format_full_table(3, list(zip(full_profiles(3), letters)), fmt)


BASE3 = str.maketrans("abi", "012")


@pytest.mark.parametrize(
    "token, fmt",
    [(t, fmt) for t in ("a_b", "0ab", "+ab", "١ab") for fmt in (TEXT, STRUCTURED)]
    + [(" ab", STRUCTURED)],
)
def test_cli_refuses_profiles_that_int_would_misread(tmp_path, capsys, token, fmt):
    # the token stands in for the profile that an unchecked int(_, 3) would
    # read it as, so without the character check the table would be whole
    misread = full_profiles(3)[int(token.translate(BASE3), 3)]
    text = full_majority3(fmt)
    quoted = f'"{misread}"' if fmt == STRUCTURED else f"\n{misread} "
    assert text.count(quoted) == 1
    path = tmp_path / "table"
    path.write_text(text.replace(quoted, quoted.replace(misread, token)), encoding="utf-8")
    code, _, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT
    assert err == f"error: profile {token!r} has characters outside a/b/i\n"


def test_cli_names_a_profile_that_is_not_a_string(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(full_n1_json({"profile": ["a"], "out": "a"}))
    code, _, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT
    assert err == "error: profile must be a string, got ['a']\n"


def test_cli_names_a_missing_out_field(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(full_n1_json({"profile": "a"}))
    code, _, err = run(capsys, "verify", "--table", str(path))
    assert code == INVALID_INPUT
    assert err == "error: full entry needs 'profile' and 'out' fields: {'profile': 'a'}\n"

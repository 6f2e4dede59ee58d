"""Reading and writing tables and sequences.

Two interchangeable formats:

* text: a `n=<int>` header line, then one entry per line, sorted in the
  canonical profile order.  Count-table lines are `na nb outcome`; full
  table lines are `<profile string over a/b/i> outcome`; sequence files
  carry a single comma-separated line of quotas.
* structured: a JSON object `{"n": ..., "entries": [...]}` with entries
  `{"a": na, "b": nb, "out": ...}` for count tables and
  `{"profile": "abi...", "out": ...}` for full tables.

Parsers accept entries in any order but demand exactly one entry per
profile.  This module holds the file syntax alone; the encodings, outcome
letters and the canonical key order, are those of `tables`.  Each format
has one reader, which only splits its file into the society size n, the
table kind, a sequence of (profile, outcome token) entries and the same
entries as key and outcome columns; one builder checks the entries and
builds the table through a trusted builder of the table classes, which
checks nothing again.  A file in the canonical order, as the writers leave
it, has the key columns of every profile for its n, so the builder compares
those once and reads the outcome column in whole-table passes; any other
file is checked entry by entry, which alone names a fault.  One writer,
`enumeration._write_columns`, writes every file, table or family, in both
formats; the table writers give it the same canonical key columns and the
table's outcome letters.
"""

import itertools
from operator import itemgetter

# the table layer is loaded by the table readers alone, so reading a sequence file does not load it
from .core import STRUCTURED, TEXT, Alternative, QuotaSeq, _parse_ints, count_table_size


def _parse_header(line: str) -> int:
    if not line.startswith("n="):
        raise ValueError(f"expected a 'n=<size>' header, got {line!r}")
    try:
        return int(line[2:])
    except ValueError:
        raise ValueError(f"bad society size in header {line!r}") from None


def _format_table(n: int, fields: tuple[str, ...], form, letters: list, fmt: str) -> str:
    """Either format from the form of a table's keys (as `_canonical_keys`) and
    its outcome letters in the canonical profile order: JSON objects for
    structured output, `fields` the texts before each column, or text lines."""
    from .enumeration import _check_format, _write_columns
    from .tables import _canonical_keys
    _check_format(fmt)
    if fmt == STRUCTURED:
        entry = [*itertools.chain(*zip(fields, (*_canonical_keys(n, form), letters))), '"\n    },\n']
        return _write_columns(f'{{\n  "n": {n},\n  "entries": [\n', entry, '"\n    }\n  ]\n}')
    entry = [*itertools.chain(*zip(_canonical_keys(n, form), itertools.repeat(" "))), letters, "\n"]
    return _write_columns(f"n={n}\n", entry, "\n")


def format_count_table(table: "CountTable", fmt: str = TEXT) -> str:
    fields = ('    {\n      "a": ', ',\n      "b": ', ',\n      "out": "')
    return _format_table(table.n, fields, str, [*table.outcome_string()], fmt)


def format_full_table(table: "FullTable", fmt: str = TEXT) -> str:
    fields = ('    {\n      "profile": "', '",\n      "out": "')
    A = Alternative.A
    letters = ["a" if o is A else "b" for o in table.outcomes]
    return _format_table(table.n, fields, None, letters, fmt)


def format_sequence(seq: QuotaSeq) -> str:
    return f"n={seq.n}\n{seq}\n"


def parse_sequence(text: str) -> QuotaSeq:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("sequence file needs a header line and one quota line")
    return QuotaSeq(_parse_header(lines[0]), _parse_ints(lines[1], "quota list"))


def parse_table(text: str) -> "CountTable | FullTable":
    """Parse either table kind from either format, detecting both."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _build_table(*_read_structured(stripped))
    return _build_table(*_read_text(text))


def _whole_table(n: int, size: int, form, columns):
    """The table from an iterator over a file's key columns, then its
    outcome column, when the keys are every profile once, in the canonical
    order, and every outcome is 'a' or 'b'; None otherwise, and then the
    per-entry checks name the fault."""
    from .tables import _OUTCOMES, CountTable, FullTable, _canonical_keys, _place_rows
    # a full table's size is checked before this pass; a count file reports
    # entry faults before its size, and both builders trust their fields
    if form is not None and (n < 1 or count_table_size(n) != size):
        return None
    keys = []
    for canonical in _canonical_keys(n, form):
        keys.append(next(columns, None))
        # a file in any other order fails at its first misplaced key, before
        # the columns after it are formed
        if keys[-1] != canonical:
            return None
    # true, false and 1.0 equal the ints 1, 0 and 1, so JSON counts must be exact ints
    if form is int and {*map(type, keys[0]), *map(type, keys[1])} != {int}:
        return None
    outs = next(columns, None)
    if outs is None or outs.count("a") + outs.count("b") != size:
        return None
    if form is None:
        return FullTable._from_outcomes(n, tuple(map(_OUTCOMES.__getitem__, outs)))
    return CountTable._from_mask(n, _place_rows(n, "".join(outs)))


def _build_table(n: int, size: int, entries, form, columns) -> "CountTable | FullTable":
    """Check and build a table from its (profile, outcome token) entries.

    A count profile is a pair of ints; a full profile is a string, read as
    its position in the all_full_profiles order (base 3, a=0, b=1, i=2).
    `form` is None for a full table, and for a count table the type of its
    keys as the file writes them.  A file in the canonical order is built
    from its `columns` in whole-table passes by `_whole_table`; any other
    file goes through the per-entry checks.
    """
    from .tables import CountTable, FullTable, _BASE3, _check_count_size, _check_full_size, _parse_outcome
    if form is None:
        _check_full_size(n, size)  # before any profile of an untrusted length is read
    table = _whole_table(n, size, form, columns)
    if table is not None:
        return table
    if form is not None:
        counts = {}
        for key, token in entries:
            if key in counts:
                raise ValueError(f"duplicate entry for profile {key}")
            counts[key] = _parse_outcome(token)
        _check_count_size(n, len(counts))
        return CountTable._from_entries(n, counts)
    outcomes = [None] * size
    for profile, token in entries:
        if len(profile) != n:
            raise ValueError(f"profile {profile!r} does not have length {n}")
        # stripping a/b/i from both ends leaves something exactly when some
        # character is outside a/b/i; this must come before int(), which would
        # also take '_', '+', spaces and non-ASCII digits
        if profile.strip("abi"):
            raise ValueError(f"profile {profile!r} has characters outside a/b/i")
        index = int(profile.translate(_BASE3), 3)
        if outcomes[index] is not None:
            raise ValueError(f"duplicate entry for profile {profile!r}")
        outcomes[index] = _parse_outcome(token)
    # 3**n distinct positions below 3**n fill every slot, each with an Alternative
    return FullTable._from_outcomes(n, tuple(outcomes))


def _read_text(text: str):
    """n, the table's entry count, its entries, the form of its count keys
    (None for a full table) and its columns."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise ValueError("empty table file")
    n = _parse_header(lines[0])
    lengths = set(map(len, map(str.split, lines[1:])))  # each line's split is dropped at once
    if not lengths <= {2, 3}:
        raise ValueError("table lines must be 'na nb outcome' or '<profile> outcome'")
    if 2 in lengths and 3 in lengths:
        raise ValueError("table mixes count-profile and full-profile lines")
    full = 2 in lengths  # an empty body is a count table with no entries
    width = 2 if full else 3
    # one token list for the body: split() breaks at every line break too
    tokens = text.split()
    del tokens[: len(lines[0].split())]
    columns = (tuple(tokens[k::width]) for k in range(width))  # tuples, as _canonical_keys
    entries = zip(*[iter(tokens)] * width)
    if full:
        return n, len(lines) - 1, entries, None, columns
    return n, len(lines) - 1, map(_text_count_entry, entries), str, columns


def _text_count_entry(parts: tuple[str, str, str]):
    na_tok, nb_tok, out_tok = parts
    try:
        return (int(na_tok), int(nb_tok)), out_tok
    except ValueError:
        raise ValueError(f"bad counts {na_tok!r} {nb_tok!r}") from None


def _json_columns(entries: list, *fields: str):
    """The entries' key fields, then their "out" fields, one column at a
    time, ending before the first field that some entry lacks."""
    try:
        for field in (*fields, "out"):
            yield tuple(map(itemgetter(field), entries))
    except (TypeError, KeyError):  # an entry that is no dict, or lacks the field
        return


def _read_structured(text: str):
    """n, the table's entry count, its entries, the form of its count keys
    (None for a full table) and its columns."""
    import json
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ValueError(f"bad JSON table: {err}") from None
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ValueError("structured table needs 'n' and 'entries' fields")
    n = data["n"]
    # here and in the counts, `type(_) is int` refuses true and false, which
    # JSON loads as bool, a subclass of int
    if type(n) is not int:
        raise ValueError(f"society size must be an integer, got {n!r}")
    entries = data["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a nonempty list")
    # the profile column exists exactly when every entry is an object with a profile
    columns = _json_columns(entries, "profile")
    profiles = next(columns, None)
    if profiles is not None:
        return n, len(entries), map(_json_full_entry, entries), None, itertools.chain([profiles], columns)
    return n, len(entries), map(_json_count_entry, entries), int, _json_columns(entries, "a", "b")


def _json_full_entry(e: dict):
    if not isinstance(e["profile"], str):
        raise ValueError(f"profile must be a string, got {e['profile']!r}")
    if "out" not in e:
        raise ValueError(f"full entry needs 'profile' and 'out' fields: {e!r}")
    return e["profile"], str(e["out"])


def _json_count_entry(e):
    if not isinstance(e, dict) or "a" not in e or "b" not in e or "out" not in e:
        raise ValueError(f"count entry needs 'a', 'b' and 'out' fields: {e!r}")
    na, nb = e["a"], e["b"]
    if type(na) is not int or type(nb) is not int:
        raise ValueError(f"support counts must be integers: {e!r}")
    return (na, nb), str(e["out"])


def format_family(family, n: int, fmt: str = TEXT) -> str:
    """Render an enumerated family of (sequence, table) pairs."""
    from .enumeration import _LISTS, _check_format, _subset_of, _write_family
    _check_format(fmt)
    opener, sep, closer, empty = _LISTS[fmt]
    family = list(family)
    pairs = [_subset_of(seq) for seq, _ in family]  # proper by construction, so not checked again
    members, quotas = (
        [opener + sep.join(map(str, v)) + closer if v else empty for v in lists]
        for lists in ([sorted(subset) for subset, _ in pairs], [seq.quotas for seq, _ in family])
    )
    tables = [table.outcome_string() for _, table in family]
    return _write_family(n, fmt, [default.value for _, default in pairs], members, quotas, [tables])

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
profile.
"""

from __future__ import annotations

from .core import (
    STRUCTURED,
    TEXT,
    Alternative,
    CountTable,
    FullProfile,
    FullTable,
    Preference,
    QuotaSeq,
)


def _parse_outcome(token: str) -> Alternative:
    try:
        return Alternative(token)
    except ValueError:
        raise ValueError(f"outcome must be 'a' or 'b', got {token!r}") from None


def _parse_profile_string(token: str, n: int) -> FullProfile:
    if len(token) != n:
        raise ValueError(f"profile {token!r} does not have length {n}")
    try:
        return tuple(Preference(c) for c in token)
    except ValueError:
        raise ValueError(f"profile {token!r} has characters outside a/b/i") from None


def _profile_string(profile: FullProfile) -> str:
    return "".join(p.value for p in profile)


def _parse_header(line: str) -> int:
    if not line.startswith("n="):
        raise ValueError(f"expected a 'n=<size>' header, got {line!r}")
    try:
        return int(line[2:])
    except ValueError:
        raise ValueError(f"bad society size in header {line!r}") from None


def format_count_table(table: CountTable, fmt: str = TEXT) -> str:
    if fmt == STRUCTURED:
        import json
        return json.dumps(
            {
                "n": table.n,
                "entries": [
                    {"a": p.na, "b": p.nb, "out": o.value} for p, o in table.items()
                ],
            },
            indent=2,
        )
    lines = [f"n={table.n}"]
    lines += [f"{p.na} {p.nb} {o.value}" for p, o in table.items()]
    return "\n".join(lines) + "\n"


def format_full_table(table: FullTable, fmt: str = TEXT) -> str:
    if fmt == STRUCTURED:
        import json
        return json.dumps(
            {
                "n": table.n,
                "entries": [
                    {"profile": _profile_string(p), "out": o.value}
                    for p, o in table.items()
                ],
            },
            indent=2,
        )
    lines = [f"n={table.n}"]
    lines += [f"{_profile_string(p)} {o.value}" for p, o in table.items()]
    return "\n".join(lines) + "\n"


def format_sequence(seq: QuotaSeq) -> str:
    return f"n={seq.n}\n{seq}\n"


def parse_sequence(text: str) -> QuotaSeq:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("sequence file needs a header line and one quota line")
    n = _parse_header(lines[0])
    try:
        quotas = tuple(int(tok) for tok in lines[1].split(","))
    except ValueError:
        raise ValueError(f"bad quota list {lines[1]!r}") from None
    return QuotaSeq(n, quotas)


def parse_table(text: str) -> CountTable | FullTable:
    """Parse either table kind from either format, detecting both."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_structured(stripped)
    return _parse_text(text)


def _parse_text(text: str) -> CountTable | FullTable:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table file")
    n = _parse_header(lines[0])
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
            entries[key] = _parse_outcome(out_tok)
        return CountTable.from_mapping(n, entries)
    if all(len(parts) == 2 for parts in body):
        full_entries = {}
        for prof_tok, out_tok in body:
            profile = _parse_profile_string(prof_tok, n)
            if profile in full_entries:
                raise ValueError(f"duplicate entry for profile {prof_tok!r}")
            full_entries[profile] = _parse_outcome(out_tok)
        return FullTable.from_mapping(n, full_entries)
    raise ValueError("table mixes count-profile and full-profile lines")


def _is_json_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_structured(text: str) -> CountTable | FullTable:
    import json
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ValueError(f"bad JSON table: {err}") from None
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ValueError("structured table needs 'n' and 'entries' fields")
    n = data["n"]
    if not _is_json_int(n):
        raise ValueError(f"society size must be an integer, got {n!r}")
    entries = data["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a nonempty list")
    if all(isinstance(e, dict) and "profile" in e for e in entries):
        full_entries = {}
        for e in entries:
            profile = _parse_profile_string(str(e["profile"]), n)
            if profile in full_entries:
                raise ValueError(f"duplicate entry for profile {e['profile']!r}")
            full_entries[profile] = _parse_outcome(str(e.get("out")))
        return FullTable.from_mapping(n, full_entries)
    count_entries = {}
    for e in entries:
        if not isinstance(e, dict) or "a" not in e or "b" not in e or "out" not in e:
            raise ValueError(f"count entry needs 'a', 'b' and 'out' fields: {e!r}")
        key = (e["a"], e["b"])
        if not all(_is_json_int(count) for count in key):
            raise ValueError(f"support counts must be integers: {e!r}")
        if key in count_entries:
            raise ValueError(f"duplicate entry for profile {key}")
        count_entries[key] = _parse_outcome(str(e["out"]))
    return CountTable.from_mapping(n, count_entries)


def format_family(family, n: int, fmt: str = TEXT) -> str:
    """Render an enumerated family of (sequence, table) pairs."""
    from .enumeration import proper_to_subset
    rules = [(seq, table, *proper_to_subset(seq)) for seq, table in family]
    if fmt == STRUCTURED:
        import json
        return json.dumps(
            {
                "n": n,
                "count": len(family),
                "family": [
                    {
                        "default": default.value,
                        "subset": sorted(subset),
                        "quotas": list(seq.quotas),
                        "table": table.outcome_string(),
                    }
                    for seq, table, subset, default in rules
                ],
            },
            indent=2,
        )
    lines = [f"n={n}", f"count={len(family)}"]
    for seq, table, subset, default in rules:
        subset_txt = ",".join(str(v) for v in sorted(subset)) or "-"
        lines.append(f"{default.value} {subset_txt} {seq} {table.outcome_string()}")
    return "\n".join(lines) + "\n"

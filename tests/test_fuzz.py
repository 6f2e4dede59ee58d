"""Fuzzing of the input boundary: table and sequence files, and the CLI.

Every file either parses or raises ValueError, and every command line
ends in exit code 0, 2, 3 or 4 without any other exception.  Sizes stay
small so that no generated command runs an expensive search.
"""

import contextlib
import io
import json
import tempfile
from itertools import accumulate
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotamaj import (
    Alternative,
    CountTable,
    QuotaSeq,
    count_table_size,
    subset_to_proper,
    to_table,
)
from quotamaj.cli import _build_parser, _read_command_line, main
from quotamaj.fileformats import (
    STRUCTURED,
    TEXT,
    format_count_table,
    format_full_table,
    format_sequence,
    parse_sequence,
    parse_table,
)
from quotamaj.oracle import expand_to_full

DEEP_JSON = '{"n": 3, "entries": ' + "[" * 200_000 + "]" * 200_000 + "}"
EXIT_CODES = {0, 2, 3, 4}


# bounded (Latin to Arabic, digits included) so that Hypothesis need not
# build its whole Unicode table, which costs about 1.5 s on a fresh checkout
chars = st.characters(max_codepoint=0x6FF)


def csv(values):
    return ",".join(map(str, values))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(allow_nan=False)
    | st.text(chars, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "a", "b", "out", "profile", "entries"]), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def formatted_tables(draw):
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        subset = draw(st.sets(st.integers(1, n)))
        table = to_table(subset_to_proper(subset, draw(st.sampled_from(list(Alternative))), n))
    else:
        size = count_table_size(n)
        cells = draw(st.lists(st.sampled_from(list(Alternative)), min_size=size, max_size=size))
        table = CountTable(n, tuple(cells))
    fmt = draw(st.sampled_from([TEXT, STRUCTURED]))
    if draw(st.booleans()):
        return format_count_table(table, fmt)
    return format_full_table(expand_to_full(table), fmt)


@st.composite
def mangled(draw, texts):
    # a well-formed file with one slice replaced, so most inputs fail late
    text = draw(texts)
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 6)))
    return text[:start] + draw(st.text(alphabet='abi 0123456789n=,-{}[]":\n', max_size=4)) + text[stop:]


sequence_files = st.builds(
    lambda n, quotas: f"n={n}\n{csv(quotas)}\n",
    st.integers(-1, 8),
    st.lists(st.integers(-1, 10), min_size=1, max_size=6),
)
table_files = (
    formatted_tables()
    | mangled(formatted_tables())
    | st.builds(lambda n, e: json.dumps({"n": n, "entries": e}), json_values, json_values)
    | st.text(chars, max_size=40)
)


@settings(max_examples=200, deadline=None)
@given(table_files | sequence_files | mangled(sequence_files))
@example(DEEP_JSON)
@example(format_sequence(QuotaSeq(11, (5, 2, 12))))
def test_parsers_return_or_raise_value_error(text):
    for parse in (parse_table, parse_sequence):
        try:
            parse(text)
        except ValueError:
            pass


@st.composite
def coherent_values(draw):
    """A well-formed value for every flag, all for one small society."""
    n = draw(st.integers(1, 6))
    na = draw(st.integers(0, n))
    r = draw(st.integers(1, n))
    default = draw(st.sampled_from(["a", "b"]))
    steps = draw(st.lists(st.integers(0, 1), min_size=r - 1, max_size=r - 1))
    quotas = draw(st.lists(st.integers(0, n + 1), max_size=4)) + [draw(st.sampled_from([0, n + 1]))]
    subset = draw(st.lists(st.integers(1, n), max_size=n, unique=True))
    return {
        "--n": str(n),
        "--na": str(na),
        "--nb": str(draw(st.integers(0, n - na))),
        "--quotas": csv(quotas),
        "--seq-file": "FILE",
        "--subset": csv(subset) or "-",
        "--default": default,
        "--format": draw(st.sampled_from([TEXT, STRUCTURED])),
        "--out": "OUT",
        "--table": "FILE",
        "--r": str(r),
        "--thresholds": csv(accumulate([1 if default == "a" else n - r + 1] + steps)),
    }


SEQUENCE_FLAGS = ["--n", "--quotas", "--seq-file"]
COMMAND_FLAGS = {
    "eval": SEQUENCE_FLAGS + ["--na", "--nb"],
    "canon": SEQUENCE_FLAGS + ["--subset", "--default"],
    "enum": ["--n", "--format", "--out"],
    "count": ["--n"],
    "verify": ["--table"],
    "represent": ["--table"],
    "convert": SEQUENCE_FLAGS + ["--default", "--r", "--thresholds"],
}
junk = (
    st.integers(-2, 9).map(str)
    | st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(csv)
    | st.text(chars, max_size=3)
)
# garbled paths stay inside the test's own directory
PATH_FLAGS = ("--seq-file", "--table", "--out")
bad_paths = st.sampled_from(["", "MISSING"])


@st.composite
def command_lines(draw):
    # mostly well-formed flags of the command itself, so most runs get past
    # argparse and into the command; each flag may be left out or garbled,
    # and Hypothesis's simplest draw (0) keeps a flag well-formed
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    values = draw(coherent_values())
    argv = [command]
    for flag in COMMAND_FLAGS[command]:
        if draw(st.integers(0, 3)) < (1 if flag == "--seq-file" else 3):
            garbled = draw(bad_paths if flag in PATH_FLAGS else junk)
            argv += [flag, garbled if draw(st.integers(0, 5)) == 5 else values[flag]]
    if command in ("verify", "represent"):
        return argv, draw(table_files)
    own = f"n={values['--n']}\n{values['--quotas']}\n"
    return argv, draw(st.just(own) | sequence_files | mangled(st.just(own)))


@settings(max_examples=120, deadline=None)
@given(command_lines())
@example((["verify", "--table", "FILE"], DEEP_JSON))
@example((["enum", "--n", "2", "--out", ""], ""))
@example((["enum", "--n", "2", "--out", "MISSING"], ""))
def test_cli_ends_in_a_documented_exit_code(command_line):
    argv, file_text = command_line
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input"
        path.write_text(file_text)
        places = {
            "FILE": str(path),
            "OUT": str(Path(work) / "out"),
            "MISSING": str(Path(work) / "missing" / "file"),
        }
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([places.get(arg, arg) for arg in argv])
            except SystemExit as exit_:  # argparse rejects the command line
                code = exit_.code
    assert code in EXIT_CODES


@settings(max_examples=200, deadline=None)
@given(command_lines())
def test_the_table_reader_reads_generated_command_lines_as_argparse_does(command_line):
    argv, _ = command_line
    args = _read_command_line(argv)
    if args is not None:
        assert vars(args) == vars(_build_parser().parse_args(argv))

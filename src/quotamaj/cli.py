"""Command-line front end.

Each command imports the library modules it runs only when it runs, so
start-up loads no module that the command does not run.  The claim is
module by module: each module is compiled whole, and most of what a
command compiles is code that it does not run.  Each command's
options are declared once, in `_COMMANDS`.  A command line that is just
the command and its full flags, each with a well-formed value, is read
straight from that table; every other line, help and usage errors among
them, goes to argparse, which is built from the same table and loaded
only then.

Exit codes: 0 success, 1 the reader closed the output, 2 invalid input,
3 a checked property is violated, 4 an exhaustive search exceeded its budget.
"""

import os
import sys
from types import SimpleNamespace

from .core import FORMATS, Alternative, CountProfile, QuotaSeq, SearchBudgetExceeded, _check_society

OK = 0
OUTPUT_CLOSED = 1
INVALID_INPUT = 2
PROPERTY_VIOLATED = 3
BUDGET_EXCEEDED = 4


class PropertyViolated(Exception):
    """A verification command found a counterexample."""


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _parse_alternative(text: str) -> Alternative:
    try:
        return Alternative(text)
    except ValueError:
        raise ValueError(f"default must be 'a' or 'b', got {text!r}")


def _read_file(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read {what} file {path}: {err}") from None


def _load_sequence(args) -> QuotaSeq:
    if args.seq_file is not None:
        if args.quotas is not None:
            raise ValueError("give either --quotas or --seq-file, not both")
        from . import fileformats
        seq = fileformats.parse_sequence(_read_file(args.seq_file, "sequence"))
        if args.n is not None and args.n != seq.n:
            raise ValueError(f"--n {args.n} contradicts the file's n={seq.n}")
        return seq
    if args.n is None:
        raise ValueError("society size is required (--n)")
    if args.quotas is None:
        raise ValueError("a quota sequence is required (--quotas or --seq-file)")
    return QuotaSeq(args.n, _parse_ints(args.quotas, "--quotas"))


def _load_counts(path: str) -> "tuple[CountTable | FullTable, CountTable | None]":
    """The table in the file at `path` and its count table: the table
    itself, the reduction of an anonymous full table, or None."""
    from . import fileformats, oracle
    from .tables import CountTable
    table = fileformats.parse_table(_read_file(path, "table"))
    if isinstance(table, CountTable):
        return table, table
    try:
        return table, oracle.reduce_to_counts(table)
    except ValueError:  # not anonymous
        return table, None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise ValueError(f"cannot write output file {out_path}: {err}") from None


def cmd_eval(args) -> int:
    from . import engine
    seq = _load_sequence(args)
    profile = CountProfile(args.na, args.nb, seq.n)
    outcome = engine.evaluate(seq, profile)
    lam = engine.profile_index(seq, profile)
    print(f"{outcome} (lambda={lam})")
    return OK


def cmd_canon(args) -> int:
    if args.subset is not None:
        if args.quotas is not None or args.seq_file is not None:
            raise ValueError("give either --subset or a quota sequence, not both")
        if args.n is None:
            raise ValueError("society size is required (--n)")
        subset = set(_parse_ints(args.subset, "--subset")) if args.subset != "-" else set()
        default = _parse_alternative("b" if args.default is None else args.default)
        from . import enumeration
        seq = enumeration.subset_to_proper(subset, default, args.n)
    else:
        if args.default is not None:
            raise ValueError("give either --subset with --default or a quota sequence, not both")
        from . import canonical
        loaded = _load_sequence(args)
        seq = canonical.canonicalize(loaded.quotas, loaded.n)
    print(seq)
    return OK


def cmd_enum(args) -> int:
    from . import enumeration
    _emit(enumeration._family_file(args.n, args.format), args.out)
    return OK


def cmd_count(args) -> int:
    _check_society(args.n)
    # the digit limit exists from Python 3.10.7 on; 0 means no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        # 2**(n+1) has at most `limit` digits iff it is below 10**limit
        largest = (10**limit).bit_length() - 2
        if args.n > largest:
            raise ValueError(
                f"the count for n={args.n} has more than {limit} digits; "
                f"the largest n that prints is {largest}"
            )
    print(2 ** (args.n + 1))
    return OK


def cmd_verify(args) -> int:
    from . import oracle
    table, counts = _load_counts(args.table)
    if counts is table:
        print("anonymous: yes (count table)")
    else:
        print(f"anonymous: {'no' if counts is None else 'yes'}")
    witness = oracle.find_manipulation_full(table) if counts is None else oracle.find_manipulation(counts)
    print("strategy-proof: yes" if witness is None else f"strategy-proof: no ({witness})")
    if counts is not None:
        print(f"onto: {'yes' if oracle.is_onto(counts) else 'no'}")
    if counts is None or witness is not None:
        raise PropertyViolated("verification found a counterexample")
    return OK


def cmd_represent(args) -> int:
    from . import extraction
    counts = _load_counts(args.table)[1]
    if counts is None:
        raise PropertyViolated("table is not anonymous: two profiles with equal counts disagree")
    try:
        levels = extraction.extract(counts)
    except extraction.NotStrategyProof as err:
        raise PropertyViolated(str(err)) from None
    seq = extraction._proper_form(levels)
    pairs = ",".join(f"({ell},{k})" for ell, k in levels.pairs) or "none"
    print(seq)
    print(f"x={levels.default}; (l,k)={pairs}")
    return OK


def cmd_convert(args) -> int:
    from . import lp
    if args.quotas is not None or args.seq_file is not None:
        if (args.default, args.r, args.thresholds) != (None, None, None):
            raise ValueError("give either a sequence or --default/--r/--thresholds, not both")
        rule = lp.proper_to_lp(_load_sequence(args))
        vector = ",".join(str(v) for v in rule.thresholds)
        name = "x" if rule.default is Alternative.A else "y"
        print(f"default={rule.default} r={rule.r} {name}={vector}")
        return OK
    if args.r is not None or args.thresholds is not None:
        if args.r is None or args.thresholds is None or args.default is None:
            raise ValueError("converting a rule needs --default, --r and --thresholds")
        if args.n is None:
            raise ValueError("society size is required (--n)")
        rule = lp.LPRule(
            n=args.n,
            default=_parse_alternative(args.default),
            r=args.r,
            thresholds=_parse_ints(args.thresholds, "--thresholds"),
        )
        print(lp.lp_to_proper(rule))
        return OK
    raise ValueError("convert needs a sequence (to a rule) or --r/--thresholds (to a sequence)")


#: The options that every command reading a quota sequence takes, as
#: flag -> (int or str, whether required, choices or None, help).
_SEQUENCE = {
    "--n": (int, False, None, "society size (or taken from --seq-file)"),
    "--quotas": (str, False, None, "comma-separated quota sequence"),
    "--seq-file": (str, False, None, "sequence file (n=<size> header, one quota line)"),
}
_TABLE_OPTION = {"--table": (str, True, None, "table file (count or full, text or JSON)")}

#: Each command's function, help and options, as in `_SEQUENCE`; an
#: option with choices defaults to the first, any other to None.
_COMMANDS = {
    "eval": (cmd_eval, "evaluate a sequence on one count profile", {
        **_SEQUENCE,
        "--na": (int, True, None, "supporters of a"),
        "--nb": (int, True, None, "supporters of b"),
    }),
    "canon": (cmd_canon, "reduce a sequence to proper form, or build one from a subset", {
        **_SEQUENCE,
        "--subset": (str, False, None, "comma-separated subset of {1..n}, or '-' for empty"),
        "--default": (str, False, None, "default outcome for --subset (a or b; b if omitted)"),
    }),
    "enum": (cmd_enum, "enumerate the full rule family", {
        "--n": (int, True, None, "society size"),
        "--out": (str, False, None, "output file (default stdout)"),
        "--format": (str, False, FORMATS, None),
    }),
    "count": (cmd_count, "print the number of rules, 2^(n+1)", {"--n": (int, True, None, "society size")}),
    "verify": (cmd_verify, "check anonymity, strategy-proofness, and ontoness of a table", _TABLE_OPTION),
    "represent": (cmd_represent, "extract the proper sequence from a table", _TABLE_OPTION),
    "convert": (cmd_convert, "convert between a proper sequence and an indifference-quota rule", {
        **_SEQUENCE,
        "--default": (str, False, None, "rule default (a or b)"),
        "--r": (int, False, None, "rule indifference quota"),
        "--thresholds": (str, False, None, "comma-separated rule thresholds"),
    }),
}


def _build_parser() -> "argparse.ArgumentParser":
    """The parser of every command, for the lines `_read_command_line` leaves to it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="quotamaj",
        description="Quota-sequence voting rules: evaluate, canonicalize, "
        "enumerate, verify, represent, and convert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag, (kind, required, choices, option_help) in options.items():
            p.add_argument(flag, type=kind, required=required, choices=choices,
                           default=choices[0] if choices else None, help=option_help)
    return parser


def _read_command_line(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse makes of `<command> (--flag value)*`,
    when each flag is the full name of an option of the command, given
    once, every required option is given and every value is well formed;
    None for any other line."""
    options = _COMMANDS[argv[0]][2] if argv and argv[0] in _COMMANDS else {}
    given = dict(zip(argv[1::2], argv[2::2]))
    # a word without a pair, a repeated flag, or one abbreviated, misspelled or no flag at all
    if not options or len(argv) != 2 * len(given) + 1 or not given.keys() <= options.keys():
        return None
    args = SimpleNamespace(command=argv[0], fn=_COMMANDS[argv[0]][0])
    for flag, (kind, required, choices, _) in options.items():
        value = given.get(flag)
        if value is None:
            if required:
                return None
            value = choices[0] if choices else None
        # argparse reads a leading '-' by rules of its own, as a flag or a
        # negative number; the bare '-' is a value
        elif value.startswith("-") and (flag, value) != ("--subset", "-"):
            return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_command_line(argv) or _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SearchBudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return BUDGET_EXCEEDED
    except PropertyViolated as err:
        print(f"error: {err}", file=sys.stderr)
        return PROPERTY_VIOLATED
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return INVALID_INPUT


def main_entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now writes to the null device, so the interpreter's last
        # flush of what is still buffered cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = OUTPUT_CLOSED
    sys.exit(status)

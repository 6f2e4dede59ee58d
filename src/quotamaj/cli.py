"""Command-line front end.

Each command imports the library modules it runs only when it runs, so
start-up loads no code that the command does not execute.

Exit codes: 0 success, 2 invalid input, 3 a checked property is violated,
4 an exhaustive search exceeded its budget.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    FORMATS,
    TEXT,
    Alternative,
    CountProfile,
    CountTable,
    FullTable,
    QuotaSeq,
    SearchBudgetExceeded,
)

OK = 0
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


def _load_sequence(args) -> QuotaSeq:
    if args.seq_file is not None:
        if args.quotas is not None:
            raise ValueError("give either --quotas or --seq-file, not both")
        from . import fileformats
        try:
            with open(args.seq_file, encoding="utf-8") as handle:
                seq = fileformats.parse_sequence(handle.read())
        except OSError as err:
            raise ValueError(f"cannot read sequence file {args.seq_file}: {err}") from None
        if args.n is not None and args.n != seq.n:
            raise ValueError(f"--n {args.n} contradicts the file's n={seq.n}")
        return seq
    if args.n is None:
        raise ValueError("society size is required (--n)")
    if args.quotas is None:
        raise ValueError("a quota sequence is required (--quotas or --seq-file)")
    return QuotaSeq(args.n, _parse_ints(args.quotas, "--quotas"))


def _load_table(path: str) -> CountTable | FullTable:
    from . import fileformats
    try:
        with open(path, encoding="utf-8") as handle:
            return fileformats.parse_table(handle.read())
    except OSError as err:
        raise ValueError(f"cannot read table file {path}: {err}") from None


def _as_count_table(table: CountTable | FullTable) -> CountTable:
    if isinstance(table, CountTable):
        return table
    from . import oracle
    try:
        return oracle.reduce_to_counts(table)
    except ValueError:
        raise PropertyViolated(
            "table is not anonymous: two profiles with equal counts disagree"
        ) from None


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
        from . import enumeration
        seq = enumeration.subset_to_proper(subset, _parse_alternative(args.default), args.n)
    else:
        from . import canonical
        loaded = _load_sequence(args)
        seq = canonical.canonicalize(loaded.quotas, loaded.n)
    print(seq)
    return OK


def cmd_enum(args) -> int:
    from . import enumeration, fileformats
    family = enumeration.enumerate_all(args.n)
    _emit(fileformats.format_family(family, args.n, args.format), args.out)
    return OK


def cmd_count(args) -> int:
    if args.n < 1:
        raise ValueError(f"society size must be at least 1, got {args.n}")
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
    table = _load_table(args.table)
    violated = False
    if isinstance(table, FullTable):
        try:
            counts = oracle.reduce_to_counts(table)
        except ValueError:
            counts = None
        print(f"anonymous: {'no' if counts is None else 'yes'}")
        if counts is not None:
            witness = oracle.find_manipulation(counts)
        else:
            violated = True
            witness = oracle.find_manipulation_full(table)
    else:
        counts = table
        print("anonymous: yes (count table)")
        witness = oracle.find_manipulation(counts)
    if witness is None:
        print("strategy-proof: yes")
    else:
        violated = True
        print(f"strategy-proof: no ({witness})")
    if counts is not None:
        print(f"onto: {'yes' if oracle.is_onto(counts) else 'no'}")
    if violated:
        raise PropertyViolated("verification found a counterexample")
    return OK


def cmd_represent(args) -> int:
    from . import extraction
    counts = _as_count_table(_load_table(args.table))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotamaj",
        description="Quota-sequence voting rules: evaluate, canonicalize, "
        "enumerate, verify, represent, and convert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_n=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if needs_n == "optional":
            p.add_argument("--n", type=int, help="society size (or taken from --seq-file)")
        elif needs_n:
            p.add_argument("--n", type=int, required=True, help="society size")
        return p

    def add_sequence_source(p):
        p.add_argument("--quotas", help="comma-separated quota sequence")
        p.add_argument("--seq-file", help="sequence file (n=<size> header, one quota line)")

    p = add("eval", cmd_eval, "evaluate a sequence on one count profile", needs_n="optional")
    add_sequence_source(p)
    p.add_argument("--na", type=int, required=True, help="supporters of a")
    p.add_argument("--nb", type=int, required=True, help="supporters of b")

    p = add("canon", cmd_canon, "reduce a sequence to proper form, or build one from a subset", needs_n="optional")
    add_sequence_source(p)
    p.add_argument("--subset", help="comma-separated subset of {1..n}, or '-' for empty")
    p.add_argument("--default", default="b", help="default outcome for --subset (a or b)")

    p = add("enum", cmd_enum, "enumerate the full rule family")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=FORMATS, default=TEXT)

    add("count", cmd_count, "print the number of rules, 2^(n+1)")

    p = add("verify", cmd_verify, "check anonymity, strategy-proofness, and ontoness of a table", needs_n=False)
    p.add_argument("--table", required=True, help="table file (count or full, text or JSON)")

    p = add("represent", cmd_represent, "extract the proper sequence from a table", needs_n=False)
    p.add_argument("--table", required=True, help="table file (count or full, text or JSON)")

    p = add("convert", cmd_convert, "convert between a proper sequence and an indifference-quota rule", needs_n="optional")
    add_sequence_source(p)
    p.add_argument("--default", help="rule default (a or b)")
    p.add_argument("--r", type=int, help="rule indifference quota")
    p.add_argument("--thresholds", help="comma-separated rule thresholds")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    sys.exit(main())

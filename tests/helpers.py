"""The tables, sequences, references and runners that several test modules share.

Not a test module: pytest does not collect it, and the tests import it by
name.  `tests/conftest.py` adds the fixtures that run `tools/layers.py`'s
command lines.
"""

import itertools
import json

from quotamaj import Alternative, CountTable, QuotaSeq, count_table_size, proper_to_subset
from quotamaj.cli import main
from quotamaj.fileformats import STRUCTURED

A, B = Alternative.A, Alternative.B


def seq(n, *quotas):
    return QuotaSeq(n, quotas)


def all_valid_r_tuples(n):
    """Every sequence of distinct interior quotas closed by n+1 or by 0."""
    for size in range(n + 1):
        for interior in itertools.permutations(range(1, n + 1), size):
            yield QuotaSeq(n, interior + (n + 1,))
            yield QuotaSeq(n, interior + (0,))


def every_count_table(n):
    """Every count table for n, 2**count_table_size(n) of them, each with
    the outcomes it was built from."""
    for outcomes in itertools.product((A, B), repeat=count_table_size(n)):
        yield outcomes, CountTable(n, outcomes)


def majority3():
    return CountTable.from_function(3, lambda p: A if p.na > p.nb else B)


def manipulable3():
    """Majority at n=3 with two outcomes flipped: (1,1) wins for a, (2,1) for b."""
    def rule(p):
        if (p.na, p.nb) == (1, 1):
            return A
        if (p.na, p.nb) == (2, 1):
            return B
        return A if p.na > p.nb else B

    return CountTable.from_function(3, rule)


def worked_table():
    """The worked rule's table, (5,2,12) at n=11, stated verbally, independent of any sequence."""
    return CountTable.from_function(11, lambda p: A if (p.na >= 5 or (2 <= p.na < 5 and p.nb < 7)) else B)


# The references below share no code with the library's tabulation or
# writers: their profile lists are built here, not read from a table.


def count_profiles(n):
    """Every count profile as an (na, nb) pair, in the canonical order."""
    return [(na, nb) for na in range(n + 1) for nb in range(n + 1 - na)]


def first_deciding_index(quotas, n, na, nb):
    """The index of the first quota that one side's support meets."""
    for i, k in enumerate(quotas):
        if na >= k or nb >= n + 1 - k:
            return i


def reference_to_table(seq):
    """The outcomes of a sequence in the canonical profile order: a wins
    where its support meets the first deciding quota."""
    n, quotas = seq.n, seq.quotas
    return tuple(A if na >= quotas[first_deciding_index(quotas, n, na, nb)] else B for na, nb in count_profiles(n))


def reference_family_file(sequences, n, fmt):
    """The family file of these sequences, as json.dumps or an f-string lays it out."""
    entries = [
        (default.value, sorted(subset), seq, "".join(o.value for o in reference_to_table(seq)))
        for seq in sequences
        for subset, default in [proper_to_subset(seq)]
    ]
    if fmt == STRUCTURED:
        family = [
            {"default": default, "subset": members, "quotas": list(seq.quotas), "table": cells}
            for default, members, seq, cells in entries
        ]
        return json.dumps({"n": n, "count": len(entries), "family": family}, indent=2)
    lines = [
        f"{default} {','.join(map(str, members)) or '-'} {seq} {cells}\n" for default, members, seq, cells in entries
    ]
    return f"n={n}\ncount={len(entries)}\n" + "".join(lines)


def run(capsys, *argv):
    """Exit code, stdout and stderr of one in-process command."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

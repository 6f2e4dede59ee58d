"""The tables, sequences and runners that several test modules share.

Not a test module: pytest does not collect it, and the tests import it by
name.  `tests/conftest.py` adds the fixtures that run `tools/layers.py`'s
command lines.
"""

import itertools

from quotamaj import Alternative, CountTable, QuotaSeq
from quotamaj.cli import main

A, B = Alternative.A, Alternative.B


def seq(n, *quotas):
    return QuotaSeq(n, quotas)


def all_valid_r_tuples(n):
    """Every sequence of distinct interior quotas closed by n+1 or by 0."""
    for size in range(n + 1):
        for interior in itertools.permutations(range(1, n + 1), size):
            yield QuotaSeq(n, interior + (n + 1,))
            yield QuotaSeq(n, interior + (0,))


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


def run(capsys, *argv):
    """Exit code, stdout and stderr of one in-process command."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

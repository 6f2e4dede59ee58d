"""Exhaustive certificates that the tests check the library's closed forms against.

`is_minimal` walks every shorter sequence of distinct quotas,
`rules_matching_table` walks every valid indifference-quota rule, and
`exhaustive_sp_family` searches every count table closed under the
oracle's three moves.  The library answers the same questions in O(n²)
through `canonicalize`, `represent` and `proper_to_lp`, and lists the
family through `enumerate_all`; these walks are the independent evidence
that those answers are the only ones, the "only" of the paper's "all,
and only".  Not a test module: pytest does not collect it, and the tests
import it by name.
"""

import itertools

from quotamaj.core import MAX_RULES, Alternative, QuotaSeq, SearchBudgetExceeded, _check_society
from quotamaj.engine import _staircase, is_valid_r_tuple, length
from quotamaj.lp import LPRule, _sequence, all_rules
from quotamaj.oracle import _escapes
from quotamaj.tables import CountTable, _grid, _prefix_rows

#: The most shorter sequences `is_minimal` may generate.
MAX_CANDIDATES = 200_000


def _shorter_candidates(n: int, max_length: int):
    interior = range(1, n + 1)
    for ell in range(max_length):
        for body in itertools.permutations(interior, ell):
            yield QuotaSeq(n, body + (n + 1,))
            yield QuotaSeq(n, body + (0,))


def _candidate_count(n: int, max_length: int) -> int:
    total = 0
    perms = 1
    for ell in range(max_length):
        total += 2 * perms
        perms *= n - ell
    return total


def is_minimal(seq: QuotaSeq) -> bool:
    """Whether no strictly shorter sequence of distinct quotas defines the same rule.

    Checked by exhaustive generation of every shorter candidate, so it is an
    independent certificate that properness really is minimality.  Raises
    SearchBudgetExceeded rather than guessing when the candidate space is
    larger than MAX_CANDIDATES.
    """
    if not is_valid_r_tuple(seq):
        raise ValueError(f"({seq}) is not a sequence of distinct quotas ending at 0 or n+1")
    target_length = length(seq)
    count = _candidate_count(seq.n, target_length)
    if count > MAX_CANDIDATES:
        raise SearchBudgetExceeded(
            f"minimality search needs {count} candidates, budget is {MAX_CANDIDATES}"
        )
    target = _staircase(seq)
    return not any(
        _staircase(cand) == target for cand in _shorter_candidates(seq.n, target_length)
    )


def rules_matching_table(table: CountTable) -> list[LPRule]:
    """Every valid indifference-quota rule whose table equals the given one.

    Exhaustive over both defaults; the certificate behind the uniqueness of
    this parametrization.  It returns at most one rule for any table: exactly
    one for a strategy-proof onto table, none for any other.  A staircase
    fixes its table, and a table with a row that is no prefix has none.
    """
    lengths = table._staircase()
    return [
        rule
        for default in (Alternative.B, Alternative.A)
        for rule in all_rules(table.n, default)
        if _staircase(_sequence(rule)) == lengths
    ]


def exhaustive_sp_family(n: int) -> list[CountTable]:
    """Every strategy-proof count table, in ascending order of its mask.

    Closure under "b loses a supporter" makes each row na of the a-region a
    prefix nb < c_na, 0 <= c_na <= n+1-na; closure under "a gains one" then
    forces c_na >= min(c_{na-1}, n+1-na), and the switch, a loss and then a
    gain, adds nothing.  Each such staircase is still kept only if
    `_escapes` finds no escape.  There are 2**(n+1), the paper's count, so
    n is refused before any is built when that exceeds MAX_RULES, as
    `enumerate_all` refuses it.
    """
    _check_society(n)
    budget = MAX_RULES.bit_length() - 1  # 2**budget is the largest power of two within it
    if n + 1 > budget:
        raise SearchBudgetExceeded(
            f"exhaustive table search for n={n} would build 2**{n + 1} staircases, budget is 2**{budget}"
        )
    stairs = [[c] for c in range(n + 2)]
    for top in range(n, 0, -1):  # top = n+1-na for the rows na = 1..n
        stairs = [s + [c] for s in stairs for c in range(min(s[-1], top), top + 1)]
    width, valid = _grid(n)
    masks = sorted(_prefix_rows(n, s) for s in stairs)
    return [CountTable._from_mask(n, m) for m in masks if not any(_escapes(m, width, valid))]

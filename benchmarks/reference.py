"""Reference answers for checking the CLI's output.

Nothing here imports quotamaj.  Every answer comes straight from the
definitions in the paper, so a command passes only if it agrees with them:

* a first-match evaluator for quota sequences,
* the subset -> proper-sequence bijection,
* the four-deviation strategy-proofness check on count tables (plus the
  per-voter check on full tables),
* an evaluator for indifference-quota rules.

A count table is a string of 'a'/'b' outcomes over the count profiles
(na, nb), ordered by na, then nb.  A full table is a string over the 3**n
per-voter profiles, ordered lexicographically with voter preferences
a < b < i.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache


def count_profiles(n: int) -> list[tuple[int, int]]:
    """All (na, nb) with na + nb <= n, in table order."""
    return [(na, nb) for na in range(n + 1) for nb in range(n + 1 - na)]


def count_index(n: int, na: int, nb: int) -> int:
    """Position of (na, nb) in count_profiles(n)."""
    return na * (n + 1) - na * (na - 1) // 2 + nb


def table_size(n: int) -> int:
    return (n + 1) * (n + 2) // 2


# ---------------------------------------------------------------- sequences


def first_match(quotas, n: int, na: int, nb: int) -> tuple[int, str]:
    """(index, outcome) of the first quota that decides the profile.

    Quota k decides for a when na >= k and for b when nb >= n + 1 - k.
    """
    for lam, k in enumerate(quotas):
        if na >= k:
            return lam, "a"
        if nb >= n + 1 - k:
            return lam, "b"
    raise ValueError("sequence has no element of {0, n+1}")


def quota_table(quotas, n: int) -> str:
    """Count table of a quota sequence."""
    # first_match inlined: checking a whole n=14 family calls this 32768 times
    out = []
    for na, nb in count_profiles(n):
        for k in quotas:
            if na >= k:
                out.append("a")
                break
            if nb >= n + 1 - k:
                out.append("b")
                break
        else:
            raise ValueError("sequence has no element of {0, n+1}")
    return "".join(out)


def is_proper(quotas, n: int) -> bool:
    """Distinct, interior entries in [1, n], one terminal at the end, and a
    strict outward zig-zag that alternates sides."""
    q = list(quotas)
    if not q or q[-1] not in (0, n + 1) or len(set(q)) != len(q):
        return False
    if any(not 1 <= v <= n for v in q[:-1]):
        return False
    lo = hi = q[0]
    prev = 0
    for v in q[1:]:
        if v > hi:
            side, hi = 1, v
        elif v < lo:
            side, lo = -1, v
        else:
            return False
        if side == prev:
            return False
        prev = side
    return True


def subset_to_proper(subset, default: str, n: int) -> list[int]:
    """Proper sequence of the rule with the given subset and default.

    For default b the interior entries are the subset, placed from the last
    interior slot backwards by taking the least remaining value, then the
    greatest, alternately; the terminal is n + 1.  Default a is the dual:
    every entry k becomes n + 1 - k.
    """
    vals = sorted(set(subset))
    if any(not 1 <= v <= n for v in vals):
        raise ValueError(f"subset {vals} is not inside 1..{n}")
    backwards = []
    lo, hi = 0, len(vals) - 1
    take_min = True
    while lo <= hi:
        if take_min:
            backwards.append(vals[lo])
            lo += 1
        else:
            backwards.append(vals[hi])
            hi -= 1
        take_min = not take_min
    seq = backwards[::-1] + [n + 1]
    if default == "a":
        seq = [n + 1 - q for q in seq]
    return seq


@lru_cache(maxsize=None)
def family(n: int) -> tuple[tuple[str, tuple[int, ...], tuple[int, ...], str], ...]:
    """Every rule for size n as (default, subset, proper sequence, table).

    Order: default b then a; subsets in binary-counter order, bit i - 1
    meaning i is a member.
    """
    rows = []
    for default in "ba":
        for mask in range(2**n):
            subset = tuple(i + 1 for i in range(n) if mask >> i & 1)
            seq = subset_to_proper(subset, default, n)
            rows.append((default, subset, tuple(seq), quota_table(seq, n)))
    return tuple(rows)


def levels_table(default: str, pairs, n: int) -> str:
    """Count table of first-match evaluation of (ell, k) indifference levels.

    Level (ell, k) with m = n - ell - k + 1 decides a when na >= k and
    nb < m, and b when na < k and nb >= m; the default decides the rest.
    """
    out = []
    for na, nb in count_profiles(n):
        outcome = default
        for ell, k in pairs:
            m = n - ell - k + 1
            if na >= k and nb < m:
                outcome = "a"
                break
            if na < k and nb >= m:
                outcome = "b"
                break
        out.append(outcome)
    return "".join(out)


# ------------------------------------------------------- strategy-proofness


def _count_deviations(na: int, nb: int, outcome: str):
    # (truthful, misreport, misreported profile) for the voters who lose
    if outcome == "b" and na >= 1:
        yield "a", "i", (na - 1, nb)
        yield "a", "b", (na - 1, nb + 1)
    elif outcome == "a" and nb >= 1:
        yield "b", "i", (na, nb - 1)
        yield "b", "a", (na + 1, nb - 1)


def find_count_manipulation(table: str, n: int):
    """First profitable single-voter misreport on a count table, or None.

    Only a supporter of the losing alternative has a motive, and they can
    step to indifference or to the other side: four deviations in all.
    Returns (na, nb, truthful, misreport).
    """
    for na, nb in count_profiles(n):
        outcome = table[count_index(n, na, nb)]
        for truthful, misreport, (qa, qb) in _count_deviations(na, nb, outcome):
            if table[count_index(n, qa, qb)] == truthful:
                return na, nb, truthful, misreport
    return None


def is_onto(table: str) -> bool:
    return "a" in table and "b" in table


COUNT_WITNESS = re.compile(
    r"at na=(\d+) nb=(\d+), ([ab])-voter misreporting as ([abi]) turns ([ab]) into ([ab])"
)


def replays_count_witness(table: str, n: int, text: str) -> bool:
    """Whether the counterexample printed in `text` is a real manipulation."""
    found = COUNT_WITNESS.search(text)
    if found is None:
        return False
    na, nb = int(found[1]), int(found[2])
    truthful, misreport, honest, manipulated = found[3], found[4], found[5], found[6]
    if na + nb > n or misreport == truthful:
        return False
    qa = na - (truthful == "a") + (misreport == "a")
    qb = nb - (truthful == "b") + (misreport == "b")
    if min(qa, qb) < 0 or qa + qb > n:
        return False
    return (
        table[count_index(n, na, nb)] == honest
        and table[count_index(n, qa, qb)] == manipulated
        and manipulated == truthful != honest
    )


def full_profiles(n: int) -> list[str]:
    return ["".join(p) for p in itertools.product("abi", repeat=n)]


def full_index(profile: str) -> int:
    idx = 0
    for c in profile:
        idx = idx * 3 + "abi".index(c)
    return idx


def expand_to_full(table: str, n: int) -> str:
    """The anonymous full table induced by a count table."""
    return "".join(
        table[count_index(n, p.count("a"), p.count("b"))] for p in full_profiles(n)
    )


def is_anonymous(full: str, n: int) -> bool:
    seen: dict[tuple[int, int], str] = {}
    for profile, outcome in zip(full_profiles(n), full):
        key = (profile.count("a"), profile.count("b"))
        if seen.setdefault(key, outcome) != outcome:
            return False
    return True


def reduce_to_counts(full: str, n: int) -> str:
    """Count table of an anonymous full table."""
    out = [""] * table_size(n)
    for profile, outcome in zip(full_profiles(n), full):
        out[count_index(n, profile.count("a"), profile.count("b"))] = outcome
    return "".join(out)


def find_full_manipulation(full: str, n: int):
    """First profitable misreport by one voter of a full table, or None.

    Returns (profile, voter, misreport).
    """
    for profile, outcome in zip(full_profiles(n), full):
        for voter, truthful in enumerate(profile):
            if truthful == "i" or truthful == outcome:
                continue
            for misreport in "abi":
                if misreport == truthful:
                    continue
                changed = profile[:voter] + misreport + profile[voter + 1 :]
                if full[full_index(changed)] == truthful:
                    return profile, voter, misreport
    return None


FULL_WITNESS = re.compile(
    r"at profile ([abi]+), voter (\d+) \(([abi])\) misreporting as ([abi]) "
    r"turns ([ab]) into ([ab])"
)


def replays_full_witness(full: str, n: int, text: str) -> bool:
    found = FULL_WITNESS.search(text)
    if found is None:
        return False
    profile, voter = found[1], int(found[2])
    truthful, misreport, honest, manipulated = found[3], found[4], found[5], found[6]
    if len(profile) != n or voter >= n or profile[voter] != truthful:
        return False
    if misreport == truthful:
        return False
    changed = profile[:voter] + misreport + profile[voter + 1 :]
    return (
        full[full_index(profile)] == honest
        and full[full_index(changed)] == manipulated
        and manipulated == truthful != honest
    )


# ------------------------------------------------- indifference-quota rules


def lp_is_valid(n: int, default: str, r: int, thresholds) -> bool:
    """Quota r in [1, n], one threshold per level, anchored at the first
    level, growing by at most one per level and never past base + i - 1."""
    t = list(thresholds)
    if not 1 <= r <= n or len(t) != r:
        return False
    base = 1 if default == "a" else n - r + 1
    if t[0] != base:
        return False
    if any(not base <= v <= base + i for i, v in enumerate(t)):
        return False
    return all(cur <= nxt <= cur + 1 for cur, nxt in zip(t, t[1:]))


def lp_outcome(n: int, default: str, r: int, thresholds, na: int, nb: int) -> str:
    """With r or more voters indifferent the default wins.  With r - i
    indifferent, default a picks a when na >= x_i; default b picks b when
    nb >= (n - r + 1) - y_i + i."""
    idle = n - na - nb
    if idle >= r:
        return default
    i = r - idle
    if default == "a":
        return "a" if na >= thresholds[i - 1] else "b"
    return "b" if nb >= (n - r + 1) - thresholds[i - 1] + i else "a"


def lp_table(n: int, default: str, r: int, thresholds) -> str:
    return "".join(
        lp_outcome(n, default, r, thresholds, na, nb) for na, nb in count_profiles(n)
    )

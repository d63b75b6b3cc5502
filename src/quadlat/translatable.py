"""k-translatability of Cayley tables.

A table is k-translatable under an ordering of its elements when each row
of the reordered table is the previous row rotated right by k, that is
when its rows are _translates(first_row, k), the one statement of the law:
the checks compare the reordered rows with it, and the builders build
their tables from it.  Everything here works on one shared row/column
ordering; the first row of a report is the row of ordering[0] read in
column order.
"""

import itertools
import math
import operator
from typing import NamedTuple

from .cayley import MAX_ORDER, CayleyTable, _check_latin_square, _permutation
from .errors import SearchCapExceeded, check_int


class TranslatabilityReport(NamedTuple):
    """Valid shifts for one table under one fixed ordering."""

    ordering: tuple[int, ...]
    valid_ks: frozenset[int]
    first_row: tuple[int, ...]


def _translates(first_row, k: int):
    """The rows of the k-translate of first_row, one at a time: row i is
    first_row turned right by i*k places, that is left by -i*k mod n."""
    n = len(first_row)
    for i in range(n):
        turn = -i * k % n
        yield first_row[turn:] + first_row[:turn]


def _reordered_rows(t: CayleyTable, ordering):
    """The rows of t under the ordering, as lists, one at a time: row q
    holds t[ordering[q]][ordering[j]] at j."""
    return ([row[j] for j in ordering] for row in map(t.entries.__getitem__, ordering))


def _follow(first, rest, k: int) -> bool:
    """True iff the rows rest, read in order, are rows 1, 2, ... of the
    k-translate of first; the first row that differs ends the comparison."""
    return all(map(operator.eq, rest, itertools.islice(_translates(first, k), 1, None)))


def k_translatable_check(t: CayleyTable, ordering, k: int) -> bool:
    """True iff row q equals row q-1 rotated right by k for every q, under
    the given simultaneous row/column ordering."""
    ordering = _permutation(ordering, t.n)
    check_int("shift k", k, 1, t.n - 1)
    # reordered lazily, so a check that fails early reorders few rows
    rows = _reordered_rows(t, ordering)
    return _follow(next(rows), rows, k)


def all_valid_k(t: CayleyTable, ordering=None) -> set[int]:
    """Every k in 1..n-1 passing k_translatable_check for this ordering."""
    ordering = _permutation(range(t.n) if ordering is None else ordering, t.n)
    first, *rest = _reordered_rows(t, ordering)
    return {k for k in range(1, t.n) if _follow(first, rest, k)}


def translatability_report(t: CayleyTable, ordering=None) -> TranslatabilityReport:
    ordering = _permutation(range(t.n) if ordering is None else ordering, t.n)
    first = tuple(next(_reordered_rows(t, ordering)))
    return TranslatabilityReport(ordering, frozenset(all_valid_k(t, ordering)), first)


def find_translatable_ordering(t: CayleyTable, max_order: int = 10, ks=None):
    """Exhaustive backtracking search for an ordering and shift making t
    k-translatable.  Returns the lexicographically least ordering that
    works together with its least shift, or None when no pair exists.

    Partial orderings are pruned as soon as the shift law fails on the
    already-placed block, so the search is exhaustive within the cap.

    The search fixes the first element of the ordering to 0.  The shift
    law holds cyclically: row q is row 0 rotated right by qk, and at
    q = n that is nk = 0 (mod n), so row 0 is row n-1 rotated by k.  Every
    rotation of a valid ordering is therefore valid with the same shifts,
    among them the rotation that starts with 0, and so the least valid
    ordering starts with 0.
    """
    n = t.n
    check_int("max_order", max_order)
    if n > max_order:
        raise SearchCapExceeded(
            f"ordering search supports n <= {max_order}, got {n}"
        )
    candidate_ks = tuple(range(1, n)) if ks is None else tuple(ks)
    for k in candidate_ks:
        check_int("shift k", k, 1, n - 1)
    if n == 1:
        return None
    e = t.entries
    sigma = [0] + [-1] * (n - 1)
    used = [True] + [False] * (n - 1)

    def consistent(length: int, k: int) -> bool:
        # row q of the reordered table must equal row 0 rotated right by qk;
        # check every constraint whose three slots are all placed and that
        # involves the newest slot
        newest = length - 1
        row0 = e[sigma[0]]
        for q in range(1, length):
            rq = e[sigma[q]]
            for j in range(length):
                s = (j - q * k) % n
                if s < length and (q == newest or j == newest or s == newest):
                    if rq[sigma[j]] != row0[sigma[s]]:
                        return False
        return True

    def extend(length: int, alive: tuple[int, ...]):
        if length == n:
            return tuple(sigma), alive[0]
        for x in range(n):
            if used[x]:
                continue
            sigma[length] = x
            used[x] = True
            still = tuple(k for k in alive if consistent(length + 1, k))
            if still:
                found = extend(length + 1, still)
                if found is not None:
                    return found
            used[x] = False
        sigma[length] = -1
        return None

    return extend(1, tuple(sorted(candidate_ks)))


def _table_from_first_row(first_row, k: int) -> CayleyTable:
    """The k-translate of first_row as a table; SearchCapExceeded past
    cayley.MAX_ORDER, before any row is built."""
    if len(first_row) > MAX_ORDER:
        raise SearchCapExceeded(f"order {len(first_row)} exceeds the cap of {MAX_ORDER}")
    return CayleyTable(len(first_row), _translates(first_row, k))


def idempotent_first_row(n: int, k: int) -> list[int]:
    """First row of the unique idempotent k-translatable quasigroup of odd
    order n, requiring gcd(n, k) = gcd(n, k-1) = 1 and 1 < k < n.

    In 1-based terms the row places i at position (i-1)(n-k)+i (mod n);
    the returned row is 0-based.  An order above cayley.MAX_ORDER raises
    SearchCapExceeded before the row is allocated.
    """
    check_int("order", n, 1)
    if n % 2 == 0:
        raise ValueError(f"no idempotent k-translatable quasigroup of even order {n}")
    check_int("shift k", k, 2, n - 1)
    if n > MAX_ORDER:
        raise SearchCapExceeded(f"order {n} exceeds the cap of {MAX_ORDER}")
    if math.gcd(n, k) != 1:
        raise ValueError(f"gcd(n, k) = {math.gcd(n, k)} must be 1")
    if math.gcd(n, k - 1) != 1:
        raise ValueError(f"gcd(n, k-1) = {math.gcd(n, k - 1)} must be 1")
    row = [-1] * n
    step = (n - k + 1) % n
    for i in range(n):
        row[i * step % n] = i
    return row


def build_idempotent_k_translatable(n: int, k: int) -> CayleyTable:
    """The unique idempotent k-translatable quasigroup of order n under the
    natural ordering, generated from its first row by k-translation."""
    return _table_from_first_row(idempotent_first_row(n, k), k)


def feasible_k_idempotent_quadratical(n: int) -> set[int]:
    """The shifts k for which an idempotent k-translatable quadratical
    quasigroup of odd order n exists; empty for n < 5.

    By uniqueness this is the set of k whose built table is quadratical.
    Under the natural ordering build_idempotent_k_translatable(n, k) is
    x*y = ax + (1-a)y with a = k(k-1)^-1 (mod n), so it is quadratical
    exactly when 2a^2 - 2a + 1 = 0 (mod n), and each root a gives back
    k = a(a-1)^-1.
    """
    check_int("order", n)
    if n % 2 == 0:
        raise ValueError(f"order must be odd, got {n}")
    if n < 5:
        return set()
    # imported here, so that order-search, which never calls this, loads no zm
    from . import zm

    return {zm.translatability_k_quadratical(n, a) for a in zm.solve_quadratic_congruence(n)}


def gcd_quasigroup_property_test(first_row, k: int) -> tuple[bool, bool]:
    """Build the k-translatable table from a first row; return (row is a
    permutation, table is a quasigroup).  For permutation rows the second
    component equals gcd(k, n) = 1."""
    first_row = list(first_row)
    n = len(first_row)
    if n == 0:
        raise ValueError("first row must be non-empty")
    check_int("shift k", k, 1, n - 1)
    t = _table_from_first_row(first_row, k)
    return sorted(first_row) == list(range(n)), _check_latin_square(t) is None

"""k-translatability of Cayley tables.

A table is k-translatable under an ordering of its elements when each row
of the reordered table is the previous row rotated right by k.  Everything
here works on one shared row/column ordering; the first row of a report is
the row of ordering[0] read in column order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cayley import CayleyTable, _is_latin
from .errors import SearchCapExceeded


class TranslatabilityReport(NamedTuple):
    """Valid shifts for one table under one fixed ordering."""

    ordering: tuple[int, ...]
    valid_ks: frozenset[int]
    first_row: tuple[int, ...]


def _check_ordering(t: CayleyTable, ordering) -> tuple[int, ...]:
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(t.n)):
        raise ValueError("ordering must be a permutation of 0..n-1")
    return ordering


def k_translatable_check(t: CayleyTable, ordering, k: int) -> bool:
    """True iff row q equals row q-1 rotated right by k for every q, under
    the given simultaneous row/column ordering."""
    ordering = _check_ordering(t, ordering)
    n = t.n
    if not (1 <= k < n):
        raise ValueError(f"shift k={k} outside 1..{n - 1}")
    e = t.entries
    for q in range(1, n):
        prev = e[ordering[q - 1]]
        cur = e[ordering[q]]
        for j in range(n):
            if cur[ordering[j]] != prev[ordering[(j - k) % n]]:
                return False
    return True


def all_valid_k(t: CayleyTable, ordering=None) -> set[int]:
    """Every k in 1..n-1 passing k_translatable_check for this ordering."""
    if ordering is None:
        ordering = range(t.n)
    ordering = _check_ordering(t, ordering)
    return {k for k in range(1, t.n) if k_translatable_check(t, ordering, k)}


def translatability_report(t: CayleyTable, ordering=None) -> TranslatabilityReport:
    if ordering is None:
        ordering = range(t.n)
    ordering = _check_ordering(t, ordering)
    first = tuple(t.entries[ordering[0]][ordering[j]] for j in range(t.n))
    return TranslatabilityReport(ordering, frozenset(all_valid_k(t, ordering)), first)


def find_translatable_ordering(t: CayleyTable, max_order: int = 10, ks=None):
    """Exhaustive backtracking search for an ordering and shift making t
    k-translatable.  Returns the lexicographically least ordering that
    works together with its least shift, or None when no pair exists.

    Partial orderings are pruned as soon as the shift law fails on the
    already-placed block, so the search is exhaustive within the cap.
    """
    n = t.n
    if n > max_order:
        raise SearchCapExceeded(
            f"ordering search supports n <= {max_order}, got {n}"
        )
    if n == 1:
        return None
    candidate_ks = tuple(sorted(ks)) if ks is not None else tuple(range(1, n))
    for k in candidate_ks:
        if not (1 <= k < n):
            raise ValueError(f"shift k={k} outside 1..{n - 1}")
    e = t.entries
    sigma = [-1] * n
    used = [False] * n

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

    return extend(0, candidate_ks)


def _table_from_first_row(first_row, k: int) -> CayleyTable:
    n = len(first_row)
    # row i is the first row turned right by i*k places, that is left by t
    turns = (-i * k % n for i in range(n))
    return CayleyTable(n, (first_row[t:] + first_row[:t] for t in turns))


def idempotent_first_row(n: int, k: int) -> list[int]:
    """First row of the unique idempotent k-translatable quasigroup of odd
    order n, requiring gcd(n, k) = gcd(n, k-1) = 1 and 1 < k < n.

    In 1-based terms the row places i at position (i-1)(n-k)+i (mod n);
    the returned row is 0-based.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n % 2 == 0:
        raise ValueError(f"no idempotent k-translatable quasigroup of even order {n}")
    if not (1 < k < n):
        raise ValueError(f"shift k={k} outside 2..{n - 1}")
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
    if not (1 <= k < n):
        raise ValueError(f"shift k={k} outside 1..{n - 1}")
    cancellable = sorted(first_row) == list(range(n))
    t = _table_from_first_row(first_row, k)
    return cancellable, _is_latin(t)

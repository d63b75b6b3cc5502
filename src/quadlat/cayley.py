"""Finite groupoids as Cayley tables, and the quadratical test.

Elements are always the indices 0..n-1; any symbolic names live in the
optional ``labels`` field.  Tables are immutable, so they can be shared
freely between threads or processes.  This module holds only the table
and what ``is_quadratical`` reads, so that the deduction engine, the block
forms and the table format load nothing else; ``quadlat.core`` adds the
other identities, closure and isomorphism.  The idempotency and bookend
checks return verdicts as core's identity checks do.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# The largest order of a table built from a formula (zm.linear_table,
# core.direct_product) or a block count (deduction.MAX_BLOCKS), about a
# million cells.  A larger one raises SearchCapExceeded before any row is
# built, so the command line exits 3 instead of filling memory.
MAX_ORDER = 1025


class CayleyTable:
    """An n by n operation table: entries[x][y] is the product x*y.

    The constructor is the one place that decides what a table is: n rows
    of n ints in 0..n-1, and optionally n distinct str labels.  Rows and
    labels may come in any iterables and are copied to tuples, so a table
    is checked when built and immutable after, and valid wherever it is
    shared.  A ValueError names the first bad row, entry or label.

    Tables compare and hash by (n, entries, labels); the hash is computed
    on first use and kept, since every cache lookup by table needs it and
    hashing reads all n^2 entries."""

    __slots__ = ("n", "entries", "labels", "_hash")

    def __init__(self, n: int, entries, labels=None):
        # each row is checked at C speed; only a row that fails is scanned
        # in Python, to name its first bad entry
        if type(n) is not int or n < 1:
            raise ValueError(f"order must be a positive int, got {n!r}")
        entries = tuple(map(tuple, entries))
        if len(entries) != n:
            raise ValueError(f"expected {n} rows, got {len(entries)}")
        for x, row in enumerate(entries):
            if len(row) != n:
                raise ValueError(f"row {x} has {len(row)} entries, expected {n}")
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
                for y, v in enumerate(row):
                    if type(v) is not int:
                        raise ValueError(f"entry [{x}][{y}] = {v!r} is not an int")
                    if not 0 <= v < n:
                        raise ValueError(f"entry [{x}][{y}] = {v} out of range 0..{n - 1}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            for label in labels:
                if type(label) is not str:
                    raise ValueError(f"label {label!r} is not a str")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.entries, self.labels) == (other.n, other.entries, other.labels)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.entries, self.labels))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (CayleyTable, (self.n, self.entries, self.labels))

    @classmethod
    def from_rows(cls, rows, labels=None) -> "CayleyTable":
        rows = tuple(rows)
        return cls(len(rows), rows, labels)

    @classmethod
    def from_function(cls, n: int, op, labels=None) -> "CayleyTable":
        return cls.from_rows([[op(x, y) for y in range(n)] for x in range(n)], labels)

    def __repr__(self):
        return f"CayleyTable(n={self.n})"


def _check_idempotency(t):
    e = t.entries
    for x in range(t.n):
        if e[x][x] != x:
            return (x,)
    return None


def _check_bookend(t, dom=None):
    # (y*x) * (x*y) = x
    e = t.entries
    dom = range(t.n) if dom is None else dom
    for x in dom:
        for y in dom:
            if e[e[y][x]][e[x][y]] != x:
                return (x, y)
    return None


def _is_latin(t):
    n = t.n
    return all(len(set(line)) == n for line in itertools.chain(t.entries, zip(*t.entries)))


def _inverse(perm):
    """The inverse of a permutation of 0..n-1."""
    return sorted(range(len(perm)), key=perm.__getitem__)


# bounded like is_quadratical's cache; check_identity reads the form once
# per law, so a report on one table builds it once
@lru_cache(maxsize=32)
def _medial_form(t):
    """(zero, gens) when t is a medial quasigroup, else None; decided in
    O(n^2 log n).

    Toyoda-Bruck: a quasigroup is medial iff x*y = alpha(x) + beta(y) + c
    over an abelian group (Q, +), with alpha and beta commuting
    automorphisms; and when it is medial, every loop isotope
    x + y = R_e^-1(x) * L_e^-1(y) is that group.  So with e = 0 this
    builds +, whose zero is e*e, and checks that + is commutative and
    associative (Light's test on a generating set) and that
    alpha = R_e - R_e(zero) and beta = L_e - L_e(zero) are commuting
    automorphisms; then x*y = R_e(x) + L_e(y) = alpha(x) + beta(y) + c.
    zero is the zero of + and gens a generating set of (Q, +)."""
    e = t.entries
    n = t.n
    if not _is_latin(t):
        return None
    r_e = [row[0] for row in e]
    l_e = e[0]
    l_inv = _inverse(l_e)
    add = [tuple(map(e[x].__getitem__, l_inv)) for x in _inverse(r_e)]
    if add != list(zip(*add)):
        return None
    gens = _generators(add, n.bit_length())  # floor(log2 n) + 1
    # Light's test: + is associative iff (x+g)+y = x+(g+y) for every x, y
    # and every g of a generating set
    if gens is None or any(add[ax[g]] != tuple(map(ax.__getitem__, add[g]))
                           for g in gens for ax in add):
        return None
    zero = e[0][0]
    # alpha(x) = R_e(x) - R_e(zero), beta(y) = L_e(y) - L_e(zero)
    alpha = list(map(add[add[r_e[zero]].index(zero)].__getitem__, r_e))
    beta = list(map(add[add[l_e[zero]].index(zero)].__getitem__, l_e))
    for phi in (alpha, beta):
        # a map that respects + at each generator respects it everywhere
        if any(list(map(phi.__getitem__, add[g])) != list(map(add[phi[g]].__getitem__, phi))
               for g in gens):
            return None
    if list(map(alpha.__getitem__, beta)) != list(map(beta.__getitem__, alpha)):
        return None
    return zero, tuple(gens)


def _generators(add, limit):
    """A generating set of the commutative magma add, grown greedily from
    the least element not yet generated; None once it would exceed limit
    elements.  In a group each new generator at least doubles the
    generated subgroup, so a group of order n needs at most
    floor(log2 n) + 1 of them."""
    gens = []
    closed = set()
    members = []
    for g in range(len(add)):
        if g in closed:
            continue
        if len(gens) == limit:
            return None
        gens.append(g)
        closed.add(g)
        members.append(g)
        frontier = [g]
        while frontier:
            new = []
            for x in frontier:
                fresh = set(map(add[x].__getitem__, members)) - closed
                closed |= fresh
                new.extend(fresh)
            members.extend(new)
            frontier = new
    return gens


def _affine_domain(t):
    """sorted({zero} | gens) of t's Toyoda-Bruck form, or None when t is
    not a medial quasigroup: an affine law that holds over this domain
    holds on all of t."""
    form = _medial_form(t)
    if form is None:
        return None
    zero, gens = form
    return sorted({zero, *gens})


# bounded: the cache holds whole tables, and a long run checks many; a
# command re-checks only the few tables it is working on
@lru_cache(maxsize=32)
def is_quadratical(t: CayleyTable) -> bool:
    """True iff t is an idempotent, bookend, medial quasigroup."""
    dom = _affine_domain(t)
    return (
        dom is not None
        and _check_idempotency(t) is None
        and _check_bookend(t, dom) is None
    )

"""Finite groupoids as Cayley tables, the latin test and the quadratical
test.

Elements are always the indices 0..n-1; any symbolic names live in the
optional ``labels`` field.  Tables are immutable, so they can be shared
freely between threads or processes.  This module holds only the table
and what ``is_quadratical`` reads, so that the deduction engine, the block
forms and the table format load nothing else; ``quadlat.core`` adds the
other identities, closure and isomorphism.

The checks here return verdicts as core's identity checks do: None when
the law holds, else the least counterexample.  Two scans serve several
laws each.  _first_failure is the one scan of an equational law: each law
names its leading variables' tuples (heads) and states its two sides, or
three for strong elasticity, as lists over its last variable.
Idempotency and bookend here, and core's quadratical law, elasticity,
strong elasticity, distributivities, weaves, alterability and mediality's
search, call it.  _first_repeat is the one scan of a cancellation law.
_check_latin_square, the left and then the right cancellation check, is
the one latin decision, which _medial_form, core's identity catalogue and
quadlat.translatable read.  _permutation is the one check of an ordering
of the elements, which core.relabel and quadlat.translatable read.
"""

from functools import lru_cache

# The largest order of a table built from a formula (zm.linear_table,
# core.direct_product) or a block count (steps.MAX_BLOCKS), about a
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


def _first_failure(t, heads, sides):
    """The least (*head, v), head taken in the order of heads, at which
    the lists sides(t.entries, *head) disagree at index v; None when they
    agree at every head.  A law states its sides as lists over its last
    variable, so each head costs a few comprehensions and one list
    comparison, and only a failing head is scanned by v."""
    e = t.entries
    for head in heads:
        first, *rest = sides(e, *head)
        for side in rest:
            if side != first:
                return (*head, next(v for v, at_v in enumerate(zip(first, *rest))
                                    if len(set(at_v)) > 1))
    return None


def _check_idempotency(t):
    # x*x = x
    return _first_failure(t, [()], lambda e: ([row[x] for x, row in enumerate(e)],
                                              list(range(len(e)))))


def _check_bookend(t, dom):
    # (y*x) * (x*y) = x
    return _first_failure(t, zip(dom), lambda e, x: ([e[ey[x]][v] for ey, v in zip(e, e[x])],
                                                     [x] * len(e)))


def _first_repeat(lines, n):
    """(i, j1, j2) for the first line i, in order, that is not a
    permutation, with j1 < j2 the first positions of a repeated value, or
    None.  Lines that are permutations are passed over by their set sizes,
    and only the first line that fails is scanned."""
    for i, line in enumerate(lines):
        if len(set(line)) != n:
            seen = {}
            for j, v in enumerate(line):
                if v in seen:
                    return (i, seen[v], j)
                seen[v] = j
    return None


def _check_left_cancellation(t):
    # x*y = x*z implies y = z; counterexample (x, y, z) with y < z
    return _first_repeat(t.entries, t.n)


def _check_right_cancellation(t):
    # y*x = z*x implies y = z; counterexample (x, y, z) with y < z
    return _first_repeat(zip(*t.entries), t.n)


def _check_latin_square(t):
    # every row and column is a permutation; counterexample is a row
    # duplicate (x, y1, y2) with t[x][y1] = t[x][y2], scanned first, else a
    # column duplicate (y, x1, x2) with t[x1][y] = t[x2][y]
    return _check_left_cancellation(t) or _check_right_cancellation(t)


def _permutation(order, n):
    """order as a tuple; a ValueError unless it lists the ints 0..n-1 once
    each.  A bool, which indexes like 0 or 1, and a float, which does not
    index at all, are refused."""
    order = tuple(order)
    if set(map(type, order)) != {int} or sorted(order) != list(range(n)):
        raise ValueError(f"ordering must list the ints 0..{n - 1} once each")
    return order


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
    if _check_latin_square(t) is not None:
        return None
    r_e = [row[0] for row in e]
    l_e = e[0]
    l_inv = _inverse(l_e)
    add = [[ex[y] for y in l_inv] for ex in map(e.__getitem__, _inverse(r_e))]
    if add != [list(col) for col in zip(*add)]:
        return None
    gens = _generators(add, n.bit_length())  # floor(log2 n) + 1
    # Light's test: + is associative iff (x+g)+y = x+(g+y) for every x, y
    # and every g of a generating set
    if gens is None or any(add[ax[g]] != [ax[v] for v in add[g]] for g in gens for ax in add):
        return None
    zero = e[0][0]
    # alpha(x) = R_e(x) - R_e(zero), beta(y) = L_e(y) - L_e(zero)
    minus_r = add[add[r_e[zero]].index(zero)]
    minus_l = add[add[l_e[zero]].index(zero)]
    alpha = [minus_r[v] for v in r_e]
    beta = [minus_l[v] for v in l_e]
    for phi in (alpha, beta):
        # a map that respects + at each generator respects it everywhere
        if any([phi[v] for v in add[g]] != [add[phi[g]][v] for v in phi] for g in gens):
            return None
    if [alpha[v] for v in beta] != [beta[v] for v in alpha]:
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
                fresh = {add[x][m] for m in members} - closed
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

"""Identities, closure and isomorphism of finite groupoids.

Tables and the quadratical test live in ``quadlat.cayley``.  All
operations here are pure functions over immutable tables, so tables can be
shared freely between threads or processes.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import NamedTuple

from .cayley import (
    MAX_ORDER,
    CayleyTable,
    _affine_domain,
    _check_bookend,
    _check_idempotency,
    _inverse,
    _is_latin,
    _medial_form,
    is_quadratical,
)
from .errors import SearchCapExceeded

# ---------------------------------------------------------------------------
# identity checking
# ---------------------------------------------------------------------------

# An identity verdict is None when it holds, otherwise the lexicographically
# least tuple of element indices violating it (variables in the order they
# appear in the defining equation).


def _check_elasticity(t, dom=None):
    # x * (y*x) = (x*y) * x
    e = t.entries
    dom = range(t.n) if dom is None else dom
    for x in dom:
        for y in dom:
            if e[x][e[y][x]] != e[e[x][y]][x]:
                return (x, y)
    return None


def _check_strong_elasticity(t, dom=None):
    # x * (y*x) = (x*y) * x = (y*x) * y
    e = t.entries
    dom = range(t.n) if dom is None else dom
    for x in dom:
        for y in dom:
            yx = e[y][x]
            m = e[x][yx]
            if m != e[e[x][y]][x] or m != e[yx][y]:
                return (x, y)
    return None


def _check_left_distributivity(t, dom=None):
    # x * (y*z) = (x*y) * (x*z)
    e = t.entries
    dom = range(t.n) if dom is None else dom
    for x in dom:
        ex = e[x]
        for y in dom:
            for z in dom:
                if ex[e[y][z]] != e[ex[y]][ex[z]]:
                    return (x, y, z)
    return None


def _check_right_distributivity(t, dom=None):
    # (x*y) * z = (x*z) * (y*z)
    e = t.entries
    dom = range(t.n) if dom is None else dom
    for x in dom:
        for y in dom:
            xy = e[x][y]
            for z in dom:
                if e[xy][z] != e[e[x][z]][e[y][z]]:
                    return (x, y, z)
    return None


# Quadruples (x, y, z, w) the plain mediality scan checks before it gives
# up.  Below order 257 a byte-row prefilter lets only a failing pair (x, y)
# reach the scan, which then stops within n^2 quadruples; above it every
# pair is scanned, and a medial table that is not a quasigroup, such as the
# projection x*y = x of order 257, would need n^4 = 4.4e9.
MEDIALITY_SCAN_CAP = 10_000_000


def _check_mediality(t):
    # (x*y) * (z*w) = (x*z) * (y*w); raises SearchCapExceeded instead of
    # scanning more than MEDIALITY_SCAN_CAP quadruples
    if _medial_form(t) is not None:
        return None
    # Not a medial quasigroup, or not a quasigroup at all: scan for the
    # least counterexample.
    e = t.entries
    n = t.n
    pairs = ((x, y) for x in range(n) for y in range(n))
    if n <= 256:
        # comp[a][b] holds a*(b*w) for every w: row b as bytes, translated
        # through row a.  The law for (x, y) over every z and w then reads
        # comp[xy][z] == comp[xz][y] for all z, one list comparison, and
        # only failing pairs reach the scan for the least counterexample.
        rows = [bytes(row) for row in e]
        comp = [[rb.translate(ra.ljust(256, b"\0")) for rb in rows] for ra in rows]
        comp_t = list(zip(*comp))
        pairs = ((x, y) for x, y in pairs
                 if comp[e[x][y]] != list(map(comp_t[y].__getitem__, e[x])))
    checked = 0
    for x, y in pairs:
        checked += n * n
        if checked > MEDIALITY_SCAN_CAP:
            raise SearchCapExceeded(
                f"mediality scan would check more than {MEDIALITY_SCAN_CAP} quadruples")
        ex = e[x]
        exy = e[ex[y]]
        ey = e[y]
        for z in range(n):
            ez = e[z]
            exz = e[ex[z]]
            for w in range(n):
                if exy[ez[w]] != exz[ey[w]]:
                    return (x, y, z, w)
    return None


def _check_weave_left(t, dom=None):
    # x * (y * (y*x)) = ((x*y) * x) * y
    e = t.entries
    dom = range(t.n) if dom is None else dom
    for x in dom:
        for y in dom:
            if e[x][e[y][e[y][x]]] != e[e[e[x][y]][x]][y]:
                return (x, y)
    return None


def _check_weave_right(t, dom=None):
    # ((x*y) * y) * x = y * (x * (y*x))
    e = t.entries
    dom = range(t.n) if dom is None else dom
    for x in dom:
        for y in dom:
            if e[e[e[x][y]][y]][x] != e[y][e[x][e[y][x]]]:
                return (x, y)
    return None


def _check_alterability(t, dom=None):
    # x*y = z*w  if and only if  y*z = w*x
    # For fixed (x, y, z) the left side holds for the set of w with
    # z*w = x*y and the right side for the set of w with w*x = y*z; the law
    # fails at every w in one set but not the other.  The sets are bitmasks
    # over w: in_row[v][i] holds the w with dom[i]*w = v, in_col[x][v] the
    # w with w*x = v, so the law at (x, y) is one list comparison over the
    # z of dom.
    e = t.entries
    n = t.n
    dom = range(n) if dom is None else dom
    bit = [1 << w for w in range(n)]
    cols = {x: list(map(itemgetter(x), e)) for x in dom}
    if _is_latin(t):
        # each set is the single w of a division table
        in_row = [list(sets) for sets in
                  zip(*(map(bit.__getitem__, _inverse(e[z])) for z in dom))]
        in_col = {x: list(map(bit.__getitem__, _inverse(col))) for x, col in cols.items()}
    else:
        in_row = [[0] * len(dom) for _ in range(n)]
        for i, z in enumerate(dom):
            for w, v in enumerate(e[z]):
                in_row[v][i] |= bit[w]
        in_col = {}
        for x, col in cols.items():
            sets = in_col[x] = [0] * n
            for w, v in enumerate(col):
                sets[v] |= bit[w]
    # row y of the table at the z of dom
    sub = {y: list(map(e[y].__getitem__, dom)) for y in dom}
    for x in dom:
        ex = e[x]
        col_x = in_col[x].__getitem__
        for y in dom:
            left = in_row[ex[y]]
            right = list(map(col_x, sub[y]))
            if left != right:
                for z, w_left, w_right in zip(dom, left, right):
                    diff = w_left ^ w_right
                    if diff:
                        return (x, y, z, (diff & -diff).bit_length() - 1)
    return None


def _check_quadratical_law(t, dom=None):
    # (x*y) * x = (z*x) * (y*z)
    e = t.entries
    dom = range(t.n) if dom is None else dom
    for x in dom:
        for y in dom:
            m = e[e[x][y]][x]
            for z in dom:
                if m != e[e[z][x]][e[y][z]]:
                    return (x, y, z)
    return None


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


def _check_right_solvability(t):
    # for all a, b there is y with a*y = b; counterexample (a, b)
    n = t.n
    for a, row in enumerate(t.entries):
        have = set(row)
        if len(have) != n:
            # entries lie in 0..n-1, so a row of n values holds every b
            return (a, next(b for b in range(n) if b not in have))
    return None


def _check_latin_square(t):
    # every row and column is a permutation; counterexample is a row
    # duplicate (x, y1, y2) with t[x][y1] = t[x][y2], scanned first, else a
    # column duplicate (y, x1, x2) with t[x1][y] = t[x2][y]
    row = _check_left_cancellation(t)
    if row is not None:
        return row
    return _check_right_cancellation(t)


IDENTITY_CHECKS = {
    "quadratical-law": _check_quadratical_law,
    "idempotency": _check_idempotency,
    "elasticity": _check_elasticity,
    "strong-elasticity": _check_strong_elasticity,
    "bookend": _check_bookend,
    "left-distributivity": _check_left_distributivity,
    "right-distributivity": _check_right_distributivity,
    "mediality": _check_mediality,
    "weave-left": _check_weave_left,
    "weave-right": _check_weave_right,
    "alterability": _check_alterability,
    "left-cancellation": _check_left_cancellation,
    "right-cancellation": _check_right_cancellation,
    "right-solvability": _check_right_solvability,
    "latin-square": _check_latin_square,
}

IDENTITY_IDS = tuple(IDENTITY_CHECKS)

# The ten equational laws every quadratical quasigroup satisfies.
BASIC_IDENTITY_IDS = (
    "idempotency",
    "elasticity",
    "strong-elasticity",
    "bookend",
    "left-distributivity",
    "right-distributivity",
    "mediality",
    "weave-left",
    "weave-right",
    "alterability",
)


# The laws whose scans take a domain.  On a medial quasigroup
# x*y = alpha(x) + beta(y) + c each side of each is an affine map
# Q^k -> Q (for alterability, z\(x*y) and (y*z)/x), and two affine maps
# agree everywhere when they agree at (zero, ..., zero) and at each tuple
# with one generator of (Q, +) among zeros.
_AFFINE_CHECKS = frozenset((
    _check_quadratical_law, _check_elasticity, _check_strong_elasticity,
    _check_bookend, _check_left_distributivity, _check_right_distributivity,
    _check_weave_left, _check_weave_right, _check_alterability,
))


def check_identity(t: CayleyTable, ident: str) -> tuple | None:
    """Check one identity; None means it holds, otherwise the
    lexicographically least violating variable tuple is returned.  An
    affine law on a medial quasigroup is decided on its affine domain
    first; any failure, and every other case, scans the whole table."""
    try:
        fn = IDENTITY_CHECKS[ident]
    except KeyError:
        raise ValueError(f"unknown identity {ident!r}") from None
    if fn in _AFFINE_CHECKS:
        dom = _affine_domain(t)
        if dom is not None and fn(t, dom) is None:
            return None
    return fn(t)


def identity_report(t: CayleyTable, idents=IDENTITY_IDS) -> dict:
    """Verdict for each requested identity, keyed by identity id."""
    return {ident: check_identity(t, ident) for ident in idents}


def quadratical_report(t: CayleyTable) -> dict:
    """The four checks characterizing quadratical quasigroups."""
    return identity_report(t, ("latin-square", "idempotency", "bookend", "mediality"))


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def dual(t: CayleyTable) -> CayleyTable:
    """Reverse the product: result[x][y] = t[y][x]."""
    return CayleyTable(t.n, zip(*t.entries), t.labels)


def direct_product(t1: CayleyTable, t2: CayleyTable) -> CayleyTable:
    """Componentwise product on pairs, indexed lexicographically:
    pair (x1, x2) gets index x1*t2.n + x2.  Raises SearchCapExceeded when
    the product's order exceeds cayley.MAX_ORDER."""
    n2 = t2.n
    if t1.n * n2 > MAX_ORDER:
        raise SearchCapExceeded(f"order {t1.n * n2} exceeds the cap of {MAX_ORDER}")
    e1, e2 = t1.entries, t2.entries
    rows = []
    for x1 in range(t1.n):
        for x2 in range(n2):
            row = []
            for y1 in range(t1.n):
                r1 = e1[x1][y1] * n2
                row.extend(r1 + e2[x2][y2] for y2 in range(n2))
            rows.append(tuple(row))
    return CayleyTable(t1.n * n2, tuple(rows))


def relabel(t: CayleyTable, order) -> CayleyTable:
    """Present t with its elements listed in the given order: order[i] is the
    old index of the element renamed to i.  The result is the same groupoid
    up to isomorphism (the relabeling map itself)."""
    order = tuple(order)
    if sorted(order) != list(range(t.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    inv = [0] * t.n
    for new, old in enumerate(order):
        inv[old] = new
    entries = tuple(
        tuple(inv[t.entries[order[i]][order[j]]] for j in range(t.n)) for i in range(t.n)
    )
    labels = tuple(t.labels[o] for o in order) if t.labels is not None else None
    return CayleyTable(t.n, entries, labels)


def generated_subgroupoid(t: CayleyTable, seeds) -> frozenset:
    """Least subset containing seeds and closed under the product."""
    seeds = set(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    for s in seeds:
        if not (0 <= s < t.n):
            raise ValueError(f"seed {s} out of range")
    e = t.entries
    closed = set(seeds)
    frontier = list(seeds)
    members = list(seeds)
    while frontier:
        new = []
        for x in frontier:
            for y in members:
                for v in (e[x][y], e[y][x]):
                    if v not in closed:
                        closed.add(v)
                        new.append(v)
        members.extend(new)
        frontier = new
    return frozenset(closed)


class TwoGenerationReport(NamedTuple):
    """Which pairs of elements generate the whole groupoid."""

    matrix: tuple[tuple[bool, ...], ...]
    all_pairs_generate: bool
    some_pair_generates: bool


def two_generation_report(t: CayleyTable) -> TwoGenerationReport:
    """Entry (x, y) is True iff {x, y} generates t.  The summary flags range
    over distinct pairs only."""
    full = frozenset(range(t.n))
    matrix = tuple(
        tuple(generated_subgroupoid(t, {x, y}) == full for y in range(t.n))
        for x in range(t.n)
    )
    distinct = [matrix[x][y] for x in range(t.n) for y in range(t.n) if x != y]
    return TwoGenerationReport(
        matrix=matrix,
        all_pairs_generate=all(distinct),
        some_pair_generates=any(distinct),
    )


def four_cycles(t: CayleyTable, a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Partition the complement of the centre (a*b)*a into 4-cycles: ordered
    quadruples with every consecutive product (cyclically) equal to the
    centre.  Cycles are rotated to start at their least element and reported
    sorted by that element."""
    if a == b:
        raise ValueError("base elements must be distinct")
    if not is_quadratical(t):
        raise ValueError("table is not quadratical")
    e = t.entries
    centre = e[e[a][b]][a]
    # successor of x is the unique y with x*y = centre
    succ = [t.entries[x].index(centre) for x in range(t.n)]
    cycles = []
    seen = {centre}
    for start in range(t.n):
        if start in seen:
            continue
        cyc = [start]
        x = succ[start]
        while x != start:
            if x in seen or len(cyc) > 4:
                raise ValueError(f"cycle through {start} does not close in 4 steps")
            cyc.append(x)
            x = succ[x]
        if len(cyc) != 4:
            raise ValueError(f"cycle through {start} has length {len(cyc)}, not 4")
        seen.update(cyc)
        k = cyc.index(min(cyc))
        cycles.append(tuple(cyc[k:] + cyc[:k]))
    cycles.sort(key=lambda c: c[0])
    return cycles


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

# Generator images find_isomorphism tries before it gives up.  Against a
# quadratical table only the images sending the first generator to 0 are
# needed: n^(k-1) for k generators of order n, so 65 for Z_65 against
# Z_5 x Z_13.  Other tables need up to n^k, so three generators of order
# 30 need 27,000; a table with no small generating set, such as a
# projection x*y = x of order 8, needs n^n.
ISO_SEARCH_CAP = 100_000


def _generating_sequence(t: CayleyTable) -> list[int]:
    """A small generating sequence: the lex-least generating pair when one
    exists, otherwise a greedily grown generating set."""
    full = frozenset(range(t.n))
    if t.n == 1:
        return [0]
    for x in range(t.n):
        for y in range(t.n):
            if x != y and generated_subgroupoid(t, {x, y}) == full:
                return [x, y]
    gens = [0]
    closed = generated_subgroupoid(t, {0})
    while closed != full:
        nxt = min(full - closed)
        gens.append(nxt)
        closed = generated_subgroupoid(t, gens)
    return gens


def _extend_map(t1: CayleyTable, t2: CayleyTable, gens, images):
    """Extend gens -> images to a full isomorphism by closure, or None."""
    n = t1.n
    e1, e2 = t1.entries, t2.entries
    phi = [-1] * n
    used = [False] * n
    order = []
    for g, im in zip(gens, images):
        if phi[g] == -1:
            if used[im]:
                return None
            phi[g] = im
            used[im] = True
            order.append(g)
        elif phi[g] != im:
            return None
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        for y in order[:i]:
            for p, q in ((x, y), (y, x)):
                r = e1[p][q]
                img = e2[phi[p]][phi[q]]
                if phi[r] == -1:
                    if used[img]:
                        return None
                    phi[r] = img
                    used[img] = True
                    order.append(r)
                elif phi[r] != img:
                    return None
    if len(order) != n:
        return None
    return tuple(phi)


def find_isomorphism(t1: CayleyTable, t2: CayleyTable):
    """A bijection phi with phi(x*y) = phi(x)*phi(y), or None after an
    exhaustive generator-image search.  Raises SearchCapExceeded instead of
    trying more than ISO_SEARCH_CAP generator images.

    The left translations of a quadratical t2 are automorphisms that act
    transitively, so when any isomorphism exists one sends the first
    generator to 0; those images come first in the search order, and
    after them a quadratical t2 has no isomorphism left to find."""
    if t1.n != t2.n:
        raise ValueError(f"orders differ: {t1.n} vs {t2.n}")
    if t1.entries == t2.entries:
        return tuple(range(t1.n))
    gens = _generating_sequence(t1)
    n = t1.n
    first_at_zero = n ** (len(gens) - 1)
    for tried, images in enumerate(itertools.product(range(n), repeat=len(gens))):
        if tried == first_at_zero and is_quadratical(t2):
            return None
        if tried == ISO_SEARCH_CAP:
            raise SearchCapExceeded(
                f"isomorphism search tried {ISO_SEARCH_CAP} generator images")
        phi = _extend_map(t1, t2, gens, images)
        if phi is not None:
            return phi
    return None

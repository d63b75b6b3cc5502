"""Identities, closure and isomorphism of finite groupoids.

Tables, the quadratical test and the latin and cancellation checks live
in ``quadlat.cayley``, and the identity catalogue here reads them from
there.  Every equational law is cayley's one scan, _first_failure, given
the tuples of its leading variables and its sides as lists over its last
variable: a law of k variables costs n^(k-1) list comparisons, not n^k
calls.  Alterability, an equivalence, states its sides over z as bitmask
sets of w, so it too costs n^2 list comparisons.  All operations here are
pure functions over immutable tables, so tables can be shared freely
between threads or processes.
"""

import itertools
from typing import NamedTuple

from .cayley import (
    MAX_ORDER,
    CayleyTable,
    _affine_domain,
    _check_bookend,
    _check_idempotency,
    _check_latin_square,
    _check_left_cancellation,
    _check_right_cancellation,
    _first_failure,
    _inverse,
    _medial_form,
    _permutation,
    is_quadratical,
)
from .errors import SearchCapExceeded

# ---------------------------------------------------------------------------
# identity checking
# ---------------------------------------------------------------------------

# An identity verdict is None when it holds, otherwise the lexicographically
# least tuple of element indices violating it (variables in the order they
# appear in the defining equation).


def _check_elasticity(t, dom):
    # x * (y*x) = (x*y) * x
    return _first_failure(t, zip(dom), lambda e, x: ([e[x][ey[x]] for ey in e],
                                                     [e[v][x] for v in e[x]]))


def _check_strong_elasticity(t, dom):
    # x * (y*x) = (x*y) * x = (y*x) * y
    return _first_failure(t, zip(dom), lambda e, x: ([e[x][ey[x]] for ey in e],
                                                     [e[v][x] for v in e[x]],
                                                     [e[ey[x]][y] for y, ey in enumerate(e)]))


def _check_left_distributivity(t, dom):
    # x * (y*z) = (x*y) * (x*z)
    def sides(e, x, y):
        ex = e[x]
        exy = e[ex[y]]
        return [ex[v] for v in e[y]], [exy[v] for v in ex]
    return _first_failure(t, itertools.product(dom, repeat=2), sides)


def _check_right_distributivity(t, dom):
    # (x*y) * z = (x*z) * (y*z); a row is a tuple, and a tuple never equals
    # a list
    return _first_failure(t, itertools.product(dom, repeat=2), lambda e, x, y: (
        list(e[e[x][y]]), [e[a][b] for a, b in zip(e[x], e[y])]))


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
        pairs = ((x, y) for x, y in pairs if comp[e[x][y]] != [comp_t[y][v] for v in e[x]])

    def heads():
        for checked, (x, y) in enumerate(pairs, 1):
            if checked * n * n > MEDIALITY_SCAN_CAP:
                raise SearchCapExceeded(
                    f"mediality scan would check more than {MEDIALITY_SCAN_CAP} quadruples")
            for z in range(n):
                yield x, y, z

    def sides(e, x, y, z):
        exy = e[e[x][y]]
        exz = e[e[x][z]]
        return [exy[v] for v in e[z]], [exz[v] for v in e[y]]
    return _first_failure(t, heads(), sides)


def _check_weave_left(t, dom):
    # x * (y * (y*x)) = ((x*y) * x) * y
    return _first_failure(t, zip(dom), lambda e, x: ([e[x][ey[ey[x]]] for ey in e],
                                                     [e[e[v][x]][y] for y, v in enumerate(e[x])]))


def _check_weave_right(t, dom):
    # ((x*y) * y) * x = y * (x * (y*x))
    return _first_failure(t, zip(dom), lambda e, x: ([e[e[v][y]][x] for y, v in enumerate(e[x])],
                                                     [ey[e[x][ey[x]]] for ey in e]))


def _check_alterability(t, dom):
    # x*y = z*w  if and only if  y*z = w*x
    # For fixed (x, y, z) the left side holds for the set of w with
    # z*w = x*y and the right side for the set of w with w*x = y*z; the law
    # fails at every w in one set but not the other.  The sets are bitmasks
    # over w: in_row[v][i] holds the w with dom[i]*w = v, in_col[x][v] the
    # w with w*x = v, so the law's sides at (x, y) are lists over the z of
    # dom.
    e = t.entries
    n = t.n
    bit = [1 << w for w in range(n)]
    in_row = [[0] * len(dom) for _ in range(n)]
    for i, z in enumerate(dom):
        for w, v in enumerate(e[z]):
            in_row[v][i] |= bit[w]
    in_col = {}
    for x in dom:
        sets = in_col[x] = [0] * n
        for w, row in enumerate(e):
            sets[row[x]] |= bit[w]
    # row y of the table at the z of dom
    sub = {y: [e[y][z] for z in dom] for y in dom}

    def sides(e, x, y):
        col_x = in_col[x]
        return in_row[e[x][y]], [col_x[v] for v in sub[y]]
    failure = _first_failure(t, itertools.product(dom, repeat=2), sides)
    if failure is None:
        return None
    x, y, i = failure
    diff = in_row[e[x][y]][i] ^ in_col[x][sub[y][i]]
    return (x, y, dom[i], (diff & -diff).bit_length() - 1)


def _check_quadratical_law(t, dom):
    # (x*y) * x = (z*x) * (y*z)
    return _first_failure(t, itertools.product(dom, repeat=2), lambda e, x, y: (
        [e[e[x][y]][x]] * len(e), [e[ez[x]][v] for ez, v in zip(e, e[y])]))


def _check_right_solvability(t):
    # for all a, b there is y with a*y = b; counterexample (a, b)
    n = t.n
    for a, row in enumerate(t.entries):
        have = set(row)
        if len(have) != n:
            # entries lie in 0..n-1, so a row of n values holds every b
            return (a, next(b for b in range(n) if b not in have))
    return None


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


# The laws whose scans take a domain: their leading variables range over
# it and their last variable over all of Q, which covers dom^k.  On a
# medial quasigroup x*y = alpha(x) + beta(y) + c each side of each is an
# affine map Q^k -> Q (for alterability, z\(x*y) and (y*z)/x), and two
# affine maps agree everywhere when they agree at (zero, ..., zero) and at
# each tuple with one generator of (Q, +) among zeros.
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
        return fn(t, range(t.n))
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
    order = _permutation(order, t.n)
    inv = _inverse(order)
    rows = ([inv[row[j]] for j in order] for row in map(t.entries.__getitem__, order))
    labels = tuple(t.labels[o] for o in order) if t.labels is not None else None
    return CayleyTable(t.n, rows, labels)


def _closure(e, seeds):
    """The elements that the distinct seeds generate under the product e,
    in the order found, and a recipe: for each element found after the
    seeds, one product (v, x, y) with v = x*y and x, y found before v."""
    members = list(seeds)
    frontier = list(seeds)
    closed = set(seeds)
    recipe = []
    while frontier:
        new = []
        for x in frontier:
            ex = e[x]
            for y in members:
                v = ex[y]
                if v not in closed:
                    closed.add(v)
                    new.append(v)
                    recipe.append((v, x, y))
                v = e[y][x]
                if v not in closed:
                    closed.add(v)
                    new.append(v)
                    recipe.append((v, y, x))
        members.extend(new)
        frontier = new
    return members, recipe


def generated_subgroupoid(t: CayleyTable, seeds) -> frozenset:
    """Least subset containing seeds and closed under the product."""
    seeds = set(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    for s in seeds:
        if not (0 <= s < t.n):
            raise ValueError(f"seed {s} out of range")
    return frozenset(_closure(t.entries, seeds)[0])


class TwoGenerationReport(NamedTuple):
    """Which pairs of elements generate the whole groupoid."""

    matrix: tuple[tuple[bool, ...], ...]
    all_pairs_generate: bool
    some_pair_generates: bool


def two_generation_report(t: CayleyTable) -> TwoGenerationReport:
    """Entry (x, y) is True iff {x, y} generates t.  The summary flags range
    over distinct pairs only.  {x, y} and {y, x} generate the same
    subgroupoid, so one closure per pair x <= y fills both entries."""
    n = t.n
    rows = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            rows[x][y] = rows[y][x] = len(_closure(t.entries, {x, y})[0]) == n
    matrix = tuple(map(tuple, rows))
    distinct = [matrix[x][y] for x in range(n) for y in range(n) if x != y]
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
    if not (0 <= a < t.n and 0 <= b < t.n):
        raise ValueError("base elements out of range")
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


def _generating_sequence(t: CayleyTable) -> tuple[list[int], list[tuple[int, int, int]]]:
    """A small generating sequence, the lex-least generating pair when one
    exists, otherwise a greedily grown generating set; and the recipe of
    its closure."""
    n = t.n
    e = t.entries
    if n == 1:
        return [0], []
    # {x, y} generates what {y, x} does, so the least pair has x < y
    for x in range(n):
        for y in range(x + 1, n):
            members, recipe = _closure(e, (x, y))
            if len(members) == n:
                return [x, y], recipe
    gens = [0]
    members, recipe = _closure(e, gens)
    while len(members) != n:
        gens.append(min(set(range(n)) - set(members)))
        members, recipe = _closure(e, gens)
    return gens, recipe


def find_isomorphism(t1: CayleyTable, t2: CayleyTable):
    """A bijection phi with phi(x*y) = phi(x)*phi(y), or None after an
    exhaustive generator-image search.  Raises SearchCapExceeded instead of
    trying more than ISO_SEARCH_CAP generator images.

    Each image tuple fixes phi on the generators, and phi extends along
    the products that first generate each other element; the extension is
    an isomorphism when it is one-to-one and respects every product.  The
    left translations of a quadratical t2 are automorphisms that act
    transitively, so when any isomorphism exists one sends the first
    generator to 0; those images come first in the search order, and
    after them a quadratical t2 has no isomorphism left to find."""
    if t1.n != t2.n:
        raise ValueError(f"orders differ: {t1.n} vs {t2.n}")
    if t1.entries == t2.entries:
        return tuple(range(t1.n))
    n = t1.n
    e1, e2 = t1.entries, t2.entries
    gens, recipe = _generating_sequence(t1)
    first_at_zero = n ** (len(gens) - 1)
    for tried, images in enumerate(itertools.product(range(n), repeat=len(gens))):
        if tried == first_at_zero and is_quadratical(t2):
            return None
        if tried == ISO_SEARCH_CAP:
            raise SearchCapExceeded(
                f"isomorphism search tried {ISO_SEARCH_CAP} generator images")
        used = set(images)
        if len(used) != len(gens):
            continue
        phi = [0] * n
        for g, im in zip(gens, images):
            phi[g] = im
        for v, x, y in recipe:
            im = e2[phi[x]][phi[y]]
            if im in used:
                break
            used.add(im)
            phi[v] = im
        else:
            if all([phi[v] for v in row1] == [row2[v] for v in phi]
                   for row1, row2 in zip(e1, [e2[y] for y in phi])):
                return tuple(phi)
    return None

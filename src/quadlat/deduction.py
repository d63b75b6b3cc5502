"""Forward-chaining completion of block-form Cayley tables.

A partial table over the symbols {centre} + H1..Hn is seeded from the
block laws plus one choice for centre*a, then saturated under a fixed rule
set: latin elimination, bookend, strong elasticity, alterability, left and
right distributivity, and mediality.  Cheap rules run first; each pass
scans in a fixed order, so traces are deterministic.  Known cells never
change: a clashing deduction is a conflict, not an overwrite.

Skip invariant.  A pass drops every rule instance that provably would
neither assign a cell nor raise a conflict, and runs the per-instance code
on the rest in the original order, so traces, conflicts, splits and leaves
are those of a pass that visits every instance:

- A link of two cells is idle when both hold the same value, unknown
  included.  Distributivity (per x, y) and mediality (per x, y and per
  x, y, z) compare both sides of all their links at once, as lists built
  with map and itemgetter over the admissible z or w, and visit the links
  only where the lists differ.  Strong elasticity and bookend are tested
  inline per pair (x, y), alterability per first cell.
- An instance that was idle when last examined stays idle until one of its
  inputs gains an assignment: for latin elimination its row, column or
  value; for alterability the row and column it concludes in, or a new
  cell of its value.  These two passes keep where their previous pass
  began (latin_mark, alter_mark) and treat as changed everything assigned
  since then, plus what they assign themselves, so they over-approximate
  and never skip an instance with work to do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import getitem, itemgetter
from typing import NamedTuple

from .core import CayleyTable, is_quadratical
from .qn import canonical_index, canonical_labels


class Step(NamedTuple):
    rule: str
    cell: tuple[int, int]
    value: int
    premises: tuple
    binding: tuple


@dataclass(frozen=True)
class Conflict:
    kind: str
    rule: str
    cell: tuple[int, int]
    value: int
    existing: int
    premises: tuple
    binding: tuple


@dataclass(frozen=True)
class PartialTable:
    n: int
    entries: tuple[tuple, ...]  # int or None per cell
    trace: tuple[Step, ...]

    def known_count(self) -> int:
        return sum(1 for row in self.entries for v in row if v is not None)


@dataclass(frozen=True)
class Completed:
    table: CayleyTable
    trace: tuple[Step, ...]
    blocks: int
    choice: int


@dataclass(frozen=True)
class Contradiction:
    conflict: Conflict
    trace: tuple[Step, ...]
    blocks: int
    choice: int


@dataclass(frozen=True)
class Stuck:
    partial: PartialTable
    blocks: int
    choice: int


class _ConflictError(Exception):
    def __init__(self, record):
        self.record = record


class ReplayError(Exception):
    """A trace step or conflict is not justified by the rule set."""


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

# Row and column of the centre for H1, and the wrap-around block products,
# indexed by the choice slot c with centre*a = (n, c).  Entries are slot
# numbers s meaning the element (n, s) (or (1, s) for "wrap").
_CHOICE_CENTRE_ROW = {1: (1, 2, 3, 4), 2: (2, 4, 1, 3), 3: (3, 1, 4, 2), 4: (4, 3, 2, 1)}
_CHOICE_CENTRE_COL = {1: (2, 4, 1, 3), 2: (4, 3, 2, 1), 3: (1, 2, 3, 4), 4: (3, 1, 4, 2)}
_CHOICE_WRAP = {1: (1, 2, 3, 4), 2: (3, 1, 4, 2), 3: (2, 4, 1, 3), 4: (4, 3, 2, 1)}
# Extra forced products for n >= 2: a*(3,4), (2,3)*b, (3,4)*b, b*(2,1), and
# the pair of cells pinned to a previous-block element.
_CHOICE_A_34 = {1: 3, 2: 1, 3: 4, 4: 2}
_CHOICE_23_B = {1: 2, 2: 4, 3: 1, 4: 3}
_CHOICE_PREV = {1: (1, 2, 2), 2: (2, 4, 4), 3: (3, 1, 1), 4: (4, 3, 3)}
# _CHOICE_PREV[c] = (s, t, u): a*(n,s) = (n-1, u) and (n,t)*a = (n-1, u)


def seed_assignments(blocks: int, choice: int) -> list[tuple[str, tuple[int, int], int]]:
    """The deterministic seed list for a block-form table: idempotency, the
    block recurrences and product laws, centre row/column translation, and
    the forced products for the given centre*a choice."""
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    if choice not in (1, 2, 3, 4):
        raise ValueError(f"choice must be a slot 1..4, got {choice}")
    n = 4 * blocks + 1

    def i(t, k):
        return canonical_index(blocks, t, k)

    seeds = []
    for x in range(n):
        seeds.append(("seed:idempotent", (x, x), x))
    for t in range(1, blocks + 1):
        t1, t2, t3, t4 = (i(t, k) for k in (1, 2, 3, 4))
        seeds += [
            ("seed:block-cycle", (t1, t4), t2),
            ("seed:block-cycle", (t2, t3), t4),
            ("seed:block-cycle", (t3, t2), t1),
            ("seed:block-cycle", (t4, t1), t3),
            ("seed:centre-product", (t1, t3), 0),
            ("seed:centre-product", (t2, t1), 0),
            ("seed:centre-product", (t3, t4), 0),
            ("seed:centre-product", (t4, t2), 0),
        ]
    for t in range(2, blocks + 1):
        p1, p2, p3, p4 = (i(t - 1, k) for k in (1, 2, 3, 4))
        seeds += [
            ("seed:block-recurrence", (p1, p2), i(t, 1)),
            ("seed:block-recurrence", (p2, p4), i(t, 2)),
            ("seed:block-recurrence", (p3, p1), i(t, 3)),
            ("seed:block-recurrence", (p4, p3), i(t, 4)),
        ]
        for k in range(1, 5):
            seeds.append(("seed:centre-row", (0, i(t, k)), i(t - 1, k)))
        seeds += [
            ("seed:centre-col", (i(t, 1), 0), i(t - 1, 2)),
            ("seed:centre-col", (i(t, 2), 0), i(t - 1, 4)),
            ("seed:centre-col", (i(t, 3), 0), i(t - 1, 1)),
            ("seed:centre-col", (i(t, 4), 0), i(t - 1, 3)),
        ]
    seeds.append(("seed:choice", (0, i(1, 1)), i(blocks, choice)))
    if blocks >= 2:
        row = _CHOICE_CENTRE_ROW[choice]
        col = _CHOICE_CENTRE_COL[choice]
        wrap = _CHOICE_WRAP[choice]
        for j in range(1, 4):
            seeds.append(("seed:choice-row", (0, i(1, j + 1)), i(blocks, row[j])))
        for j in range(4):
            seeds.append(("seed:choice-col", (i(1, j + 1), 0), i(blocks, col[j])))
        nb = blocks
        seeds += [
            ("seed:choice-wrap", (i(nb, 1), i(nb, 2)), i(1, wrap[0])),
            ("seed:choice-wrap", (i(nb, 2), i(nb, 4)), i(1, wrap[1])),
            ("seed:choice-wrap", (i(nb, 3), i(nb, 1)), i(1, wrap[2])),
            ("seed:choice-wrap", (i(nb, 4), i(nb, 3)), i(1, wrap[3])),
            ("seed:choice-eq", (i(1, 4), i(2, 1)), i(nb, choice)),
            ("seed:choice-eq", (i(2, 3), i(1, 4)), i(nb, _CHOICE_23_B[choice])),
        ]
        if blocks >= 3:
            seeds += [
                ("seed:choice-eq", (i(1, 1), i(3, 4)), i(nb, _CHOICE_A_34[choice])),
                ("seed:choice-eq", (i(3, 4), i(1, 4)), i(nb, choice)),
            ]
        s, tt, u = _CHOICE_PREV[choice]
        seeds += [
            ("seed:choice-prev", (i(1, 1), i(nb, s)), i(nb - 1, u)),
            ("seed:choice-prev", (i(nb, tt), i(1, 1)), i(nb - 1, u)),
        ]
    return seeds


# ---------------------------------------------------------------------------
# engine state
# ---------------------------------------------------------------------------

class _State:
    __slots__ = (
        "n", "blocks", "choice", "val", "row_vals", "col_vals",
        "row_known", "col_known", "value_rows", "value_cols",
        "cells_by_value", "unknown", "trace", "conflict", "latin_mark",
        "alter_mark", "alter_lens",
    )

    def __init__(self, blocks: int, choice: int):
        n = 4 * blocks + 1
        self.n = n
        self.blocks = blocks
        self.choice = choice
        self.val = [[-1] * n for _ in range(n)]
        self.row_vals = [0] * n
        self.col_vals = [0] * n
        self.row_known = [0] * n
        self.col_known = [0] * n
        # bitmasks of the rows and of the columns that hold each value
        self.value_rows = [0] * n
        self.value_cols = [0] * n
        self.cells_by_value = [[] for _ in range(n)]
        self.unknown = n * n
        self.trace = []
        self.conflict = None
        # length of the trace when the last latin pass began, likewise for
        # the last alterability pass, and each value's cell count when that
        # pass reached it
        self.latin_mark = 0
        self.alter_mark = 0
        self.alter_lens = [0] * n

    def clone(self) -> "_State":
        st = _State.__new__(_State)
        st.n = self.n
        st.blocks = self.blocks
        st.choice = self.choice
        st.val = [row[:] for row in self.val]
        st.row_vals = self.row_vals[:]
        st.col_vals = self.col_vals[:]
        st.row_known = self.row_known[:]
        st.col_known = self.col_known[:]
        st.value_rows = self.value_rows[:]
        st.value_cols = self.value_cols[:]
        st.cells_by_value = [lst[:] for lst in self.cells_by_value]
        st.unknown = self.unknown
        st.trace = self.trace[:]
        st.conflict = None
        st.latin_mark = self.latin_mark
        st.alter_mark = self.alter_mark
        st.alter_lens = self.alter_lens[:]
        return st

    # -- assignment ---------------------------------------------------------

    def _find_in_col(self, c: int, v: int) -> int:
        for r in range(self.n):
            if self.val[r][c] == v:
                return r
        raise ValueError("value not present in column")

    def set_cell(self, r, c, v, rule, premises, binding) -> bool:
        cur = self.val[r][c]
        if cur == v:
            return False
        if cur != -1:
            raise _ConflictError(Conflict(
                "cell-mismatch", rule, (r, c), v, cur, premises, binding))
        bit = 1 << v
        if self.row_vals[r] & bit:
            raise _ConflictError(Conflict(
                "row-duplicate", rule, (r, c), v, -1,
                premises + (((r, self.val[r].index(v)), v),), binding))
        if self.col_vals[c] & bit:
            i = self._find_in_col(c, v)
            raise _ConflictError(Conflict(
                "col-duplicate", rule, (r, c), v, -1,
                premises + ((((i, c)), v),), binding))
        self.val[r][c] = v
        self.row_vals[r] |= bit
        self.col_vals[c] |= bit
        self.row_known[r] |= 1 << c
        self.col_known[c] |= 1 << r
        self.value_rows[v] |= 1 << r
        self.value_cols[v] |= 1 << c
        self.cells_by_value[v].append((r, c))
        self.unknown -= 1
        self.trace.append(Step(rule, (r, c), v, premises, binding))
        return True

    def link(self, cell1, cell2, rule, binding, premise_cells) -> bool:
        """Require the two cells to hold equal values; propagate or clash."""
        v1 = self.val[cell1[0]][cell1[1]]
        v2 = self.val[cell2[0]][cell2[1]]
        if v1 == -1 and v2 == -1:
            return False
        if v1 != -1 and v2 != -1:
            if v1 != v2:
                prem = self._premises(premise_cells) + ((cell1, v1),)
                raise _ConflictError(Conflict(
                    "cell-mismatch", rule, cell2, v1, v2, prem, binding))
            return False
        if v1 != -1:
            prem = self._premises(premise_cells) + ((cell1, v1),)
            return self.set_cell(cell2[0], cell2[1], v1, rule, prem, binding)
        prem = self._premises(premise_cells) + ((cell2, v2),)
        return self.set_cell(cell1[0], cell1[1], v2, rule, prem, binding)

    def _premises(self, cells) -> tuple:
        return tuple((cell, self.val[cell[0]][cell[1]]) for cell in cells)

    # -- rule passes --------------------------------------------------------

    def latin_pass(self) -> bool:
        # Only the cells, row values and column values whose row, column or
        # value is dirty are examined: assigned since the previous latin
        # pass began, or by this pass (see the module docstring).
        n = self.n
        full = (1 << n) - 1
        changed = False
        trace = self.trace
        dirty_rows = dirty_cols = dirty_vals = 0
        for step in trace[self.latin_mark:]:
            r, c = step.cell
            dirty_rows |= 1 << r
            dirty_cols |= 1 << c
            dirty_vals |= 1 << step.value
        self.latin_mark = len(trace)
        for r in range(n):
            row_v = self.row_vals[r]
            todo = full & ~self.row_known[r]
            if not dirty_rows >> r & 1:
                todo &= dirty_cols
            while todo:
                bit = todo & -todo
                todo ^= bit
                c = bit.bit_length() - 1
                cand = ~(row_v | self.col_vals[c]) & full
                if cand == 0:
                    raise _ConflictError(Conflict(
                        "cell-no-candidate", "latin-cell", (r, c), -1, -1,
                        self._coverage_cell(r, c), (r, c)))
                if cand & (cand - 1) == 0:
                    v = cand.bit_length() - 1
                    changed |= self.set_cell(
                        r, c, v, "latin-cell-single", self._coverage_cell(r, c), (r, c))
                    row_v = self.row_vals[r]
                    dirty_rows |= 1 << r
                    dirty_cols |= bit
                    dirty_vals |= cand
                    todo = full & ~self.row_known[r] & -(bit << 1)
        for r in range(n):
            missing = full & ~self.row_vals[r]
            todo = missing if dirty_rows >> r & 1 else missing & dirty_vals
            while todo:
                bit = todo & -todo
                todo ^= bit
                v = bit.bit_length() - 1
                # the unknown cells of row r whose column lacks v
                spots = full & ~self.row_known[r] & ~self.value_cols[v]
                if spots == 0:
                    raise _ConflictError(Conflict(
                        "row-value-impossible", "latin-row", (r, -1), v, -1,
                        self._coverage_row(r, v), (r, v)))
                if spots & (spots - 1) == 0:
                    spot = spots.bit_length() - 1
                    changed |= self.set_cell(
                        r, spot, v, "latin-row-single", self._coverage_row(r, v), (r, v))
                    dirty_rows |= 1 << r
                    dirty_cols |= 1 << spot
                    dirty_vals |= bit
                    todo = missing & -(bit << 1)
        for c in range(n):
            missing = full & ~self.col_vals[c]
            todo = missing if dirty_cols >> c & 1 else missing & dirty_vals
            while todo:
                bit = todo & -todo
                todo ^= bit
                v = bit.bit_length() - 1
                # the unknown cells of column c whose row lacks v
                spots = full & ~self.col_known[c] & ~self.value_rows[v]
                if spots == 0:
                    raise _ConflictError(Conflict(
                        "col-value-impossible", "latin-col", (-1, c), v, -1,
                        self._coverage_col(c, v), (c, v)))
                if spots & (spots - 1) == 0:
                    spot = spots.bit_length() - 1
                    changed |= self.set_cell(
                        spot, c, v, "latin-col-single",
                        self._coverage_col(c, v), (c, v))
                    dirty_rows |= 1 << spot
                    dirty_cols |= 1 << c
                    dirty_vals |= bit
                    todo = missing & -(bit << 1)
        return changed

    def _coverage_cell(self, r, c) -> tuple:
        out = []
        for v in range(self.n):
            if self.val[r][c] == v:
                continue
            if self.row_vals[r] >> v & 1:
                out.append(((r, self.val[r].index(v)), v))
            elif self.col_vals[c] >> v & 1:
                out.append((((self._find_in_col(c, v), c)), v))
        return tuple(out)

    def _coverage_row(self, r, v) -> tuple:
        out = []
        for c in range(self.n):
            if self.val[r][c] != -1:
                out.append((((r, c)), self.val[r][c]))
            elif self.col_vals[c] >> v & 1:
                out.append((((self._find_in_col(c, v), c)), v))
        return tuple(out)

    def _coverage_col(self, c, v) -> tuple:
        out = []
        for r in range(self.n):
            if self.val[r][c] != -1:
                out.append((((r, c)), self.val[r][c]))
            elif self.row_vals[r] >> v & 1:
                out.append(((r, self.val[r].index(v)), v))
        return tuple(out)

    def pairs_pass(self) -> bool:
        # bookend (y*x)(x*y) = x and the three-way strong elasticity chain
        # x(yx) = (xy)x = (yx)y; a pair (x, y) is idle when y*x is unknown
        # (one cell at most, nothing to link) or every known side agrees
        n = self.n
        val = self.val
        changed = False
        for x in range(n):
            vx = val[x]
            for y in range(n):
                if x == y:
                    continue
                u = val[y][x]
                if u == -1:
                    continue
                v = vx[y]
                if v == -1:
                    if vx[u] == val[u][y]:
                        continue
                elif val[u][v] == x and vx[u] == val[u][y] == val[v][x]:
                    continue
                base = [(y, x)]
                cells = [(x, u), (u, y)]
                if v != -1:
                    changed |= self.set_cell(
                        u, v, x, "bookend", (((y, x), u), ((x, y), v)), (x, y))
                    base.append((x, y))
                    cells.append((v, x))
                for cell1, cell2 in combinations(cells, 2):
                    changed |= self.link(cell1, cell2, "strong-elasticity", (x, y), base)
        return changed

    def alter_pass(self) -> bool:
        # x*y = z*w implies y*z = w*x, over pairs of equal known cells; the
        # reversed pair yields the same cell equality, so one link suffices.
        # The pairs with first cell (x, y) conclude in row y and column x:
        # they are examined only if one of those gained an assignment, or a
        # new cell of this value joined, since the previous pass began.
        # Their two sides are then compared at once: row y at the later
        # cells' rows z against column x at their columns w.
        val = self.val
        trace = self.trace
        changed = False
        dirty_rows = dirty_cols = 0
        for step in trace[self.alter_mark:]:
            r, c = step.cell
            dirty_rows |= 1 << r
            dirty_cols |= 1 << c
        self.alter_mark = len(trace)
        for v in range(self.n):
            lst = self.cells_by_value[v]
            m = len(lst)
            old = self.alter_lens[v]
            self.alter_lens[v] = m
            zs = [cell[0] for cell in lst]
            ws = [cell[1] for cell in lst]
            for a in range(m - 1):
                x, y = lst[a]
                # pairs (a, b) with b >= old are new; older ones can only
                # have changed through row y or column x
                if a >= old or dirty_rows >> y & 1 or dirty_cols >> x & 1:
                    start = a + 1
                elif old < m:
                    start = old
                else:
                    continue
                if (list(map(val[y].__getitem__, zs[start:m]))
                        == [val[w][x] for w in ws[start:m]]):
                    continue
                before = len(trace)
                vy = val[y]
                for b in range(a + 1, m):
                    z, w = lst[b]
                    if vy[z] != val[w][x]:
                        changed |= self.link(
                            (y, z), (w, x), "alterability", (x, y, z, w),
                            ((x, y), (z, w)))
                for step in trace[before:]:
                    r, c = step.cell
                    dirty_rows |= 1 << r
                    dirty_cols |= 1 << c
        return changed

    def _known_cols(self) -> list:
        out = []
        for r in range(self.n):
            mask = self.row_known[r]
            cols = []
            while mask:
                bit = mask & -mask
                mask ^= bit
                cols.append(bit.bit_length() - 1)
            out.append(cols)
        return out

    def distrib_pass(self) -> bool:
        # left: x(yz) = (xy)(xz); right: (xy)z = (xz)(yz).  Per (x, y) both
        # sides of each law are compared over the z with (x, z) and (y, z)
        # known; the links run only where they differ.
        n = self.n
        val = self.val
        changed = False
        kc = self._known_cols()
        picks = {}
        for x in range(n):
            vx = val[x]
            for y in kc[x]:
                b_xy = vx[y]
                both = self.row_known[x] & self.row_known[y]
                if not both:
                    continue
                pick = _picker(picks, both)
                vy = val[y]
                # left distributivity, premise cells (y,z),(x,y),(x,z)
                if (pick(list(map(vx.__getitem__, vy)))
                        != pick(list(map(val[b_xy].__getitem__, vx)))):
                    m2 = both
                    while m2:
                        bit = m2 & -m2
                        m2 ^= bit
                        z = bit.bit_length() - 1
                        a_yz = vy[z]
                        c_xz = vx[z]
                        if vx[a_yz] == val[b_xy][c_xz]:
                            continue
                        changed |= self.link(
                            (x, a_yz), (b_xy, c_xz), "left-distributivity",
                            (x, y, z), ((y, z), (x, y), (x, z)))
                # right distributivity, premise cells (x,y),(x,z),(y,z)
                if (pick(val[b_xy])
                        != pick(list(map(getitem, map(val.__getitem__, vx), vy)))):
                    m2 = both
                    while m2:
                        bit = m2 & -m2
                        m2 ^= bit
                        z = bit.bit_length() - 1
                        b_xz = vx[z]
                        c_yz = vy[z]
                        if val[b_xy][z] == val[b_xz][c_yz]:
                            continue
                        changed |= self.link(
                            (b_xy, z), (b_xz, c_yz), "right-distributivity",
                            (x, y, z), ((x, y), (x, z), (y, z)))
        return changed

    def _composed(self) -> tuple:
        """comp[a][z][w] = val[a][val[z][w]], meaningful where (z, w) is
        known (elsewhere the unknown -1 indexes the last column), and its
        transpose comp_t[z][a] = comp[a][z]."""
        val = self.val
        through = [itemgetter(*rz) for rz in val]
        comp = [[get(ra) for get in through] for ra in val]
        return comp, list(zip(*comp))

    def mediality_pass(self) -> bool:
        # (xy)(zw) = (xz)(yw); degenerate instances with x=y, x=z, z=w or
        # y=w reduce to distributivity and are skipped.  Over the admissible
        # w the two sides of (x, y, z) are the composed rows comp[xy][z] and
        # comp[xz][y]; the links run only where these differ.
        n = self.n
        val = self.val
        row_known = self.row_known
        changed = False
        kc = self._known_cols()
        comp, comp_t = self._composed()
        picks = {}
        for x in range(n):
            vx = val[x]
            cols_x = kc[x]
            for y in cols_x:
                if y == x:
                    continue
                a_xy = vx[y]
                # all z at once, over every w: equal rows leave nothing to do
                if (list(map(comp[a_xy].__getitem__, cols_x))
                        == list(map(comp_t[y].__getitem__, map(vx.__getitem__, cols_x)))):
                    continue
                vy = val[y]
                ky = row_known[y]
                off_y = ~(1 << y)
                for z in cols_x:
                    if z == x or z == y:
                        continue
                    c_xz = vx[z]
                    # the w the loop below visits, plus any that became
                    # known in row y since ky was read
                    live = row_known[z] & row_known[y] & off_y & ~(1 << z)
                    if not live:
                        continue
                    pick = _picker(picks, live)
                    if pick(comp[a_xy][z]) == pick(comp[c_xz][y]):
                        continue
                    before = self.unknown
                    vz = val[z]
                    mask = row_known[z] & ky
                    while mask:
                        bit = mask & -mask
                        mask ^= bit
                        w = bit.bit_length() - 1
                        if w == z or w == y or val[a_xy][vz[w]] == val[c_xz][vy[w]]:
                            continue
                        changed |= self.link(
                            (a_xy, vz[w]), (c_xz, vy[w]), "mediality",
                            (x, y, z, w), ((x, y), (z, w), (x, z), (y, w)))
                    if self.unknown != before:
                        comp, comp_t = self._composed()
        return changed


def _picker(picks: dict, mask: int):
    """An itemgetter over the set bits of mask, memoised in picks; it
    returns a tuple, or a bare item when one bit is set."""
    pick = picks.get(mask)
    if pick is None:
        idx = []
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            idx.append(bit.bit_length() - 1)
        pick = picks[mask] = itemgetter(*idx)
    return pick


def _saturate(st: _State) -> None:
    if st.conflict is not None:
        return
    try:
        while True:
            while True:
                ch = st.latin_pass()
                ch = st.pairs_pass() or ch
                ch = st.alter_pass() or ch
                if not ch:
                    break
            if st.distrib_pass():
                continue
            if st.mediality_pass():
                continue
            return
    except _ConflictError as exc:
        st.conflict = exc.record


def _seed_state(blocks: int, choice: int) -> _State:
    st = _State(blocks, choice)
    try:
        for rule, cell, v in seed_assignments(blocks, choice):
            st.set_cell(cell[0], cell[1], v, rule, (), ())
    except _ConflictError as exc:
        st.conflict = exc.record
    return st


def _partial_view(st: _State) -> PartialTable:
    entries = tuple(
        tuple(v if v != -1 else None for v in row) for row in st.val
    )
    return PartialTable(st.n, entries, tuple(st.trace))


def _outcome(st: _State):
    if st.conflict is not None:
        return Contradiction(st.conflict, tuple(st.trace), st.blocks, st.choice)
    if st.unknown == 0:
        table = CayleyTable(
            st.n, tuple(tuple(row) for row in st.val), canonical_labels(st.blocks))
        if not is_quadratical(table):
            raise AssertionError("completed table failed the quadratical check")
        return Completed(table, tuple(st.trace), st.blocks, st.choice)
    return Stuck(_partial_view(st), st.blocks, st.choice)


def complete_qn(blocks: int, choice: int):
    """Deduce the full table of a block-form quadratical quasigroup from
    the centre*a choice (a slot 1..4 naming the element of the last block).
    Pure saturation, no search: the outcome is Completed, Contradiction, or
    an honest Stuck."""
    st = _seed_state(blocks, choice)
    _saturate(st)
    return _outcome(st)


def parse_choice(blocks: int, text: str) -> int:
    """Accept a slot 1..4 or the two-digit element name (e.g. 62 for the
    second slot of the last block of a six-block table)."""
    v = int(text)
    if 1 <= v <= 4:
        return v
    if blocks * 10 < v < blocks * 10 + 5:
        return v - blocks * 10
    raise ValueError(f"choice {text!r} is not a slot 1..4 of block {blocks}")


# ---------------------------------------------------------------------------
# refutation with bounded case splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefutationCase:
    choice: int
    refuted: bool
    leaves: tuple[Contradiction, ...]
    splits: int
    max_depth_used: int
    completed: Completed | None
    stuck: Stuck | None


@dataclass(frozen=True)
class RefutationReport:
    blocks: int
    cases: tuple[RefutationCase, ...]

    @property
    def ok(self) -> bool:
        return all(c.refuted for c in self.cases)


def _least_unknown_cell(st: _State):
    """The unknown cell with the fewest latin candidates, ties by (r, c)."""
    n = st.n
    full = (1 << n) - 1
    best = None
    best_count = n + 1
    for r in range(n):
        row = st.val[r]
        for c in range(n):
            if row[c] != -1:
                continue
            cand = ~(st.row_vals[r] | st.col_vals[c]) & full
            cnt = cand.bit_count()
            if cnt < best_count:
                best = (r, c, cand)
                best_count = cnt
                if cnt <= 2:
                    return best
    return best


def _refute_search(st: _State, depth: int, max_depth: int, stats: dict):
    """DFS over assumptions on the least-unknown cell.  Returns the list of
    Contradiction leaves, or the first Completed or Stuck outcome."""
    if st.conflict is not None or st.unknown == 0 or depth >= max_depth:
        out = _outcome(st)
        return [out] if isinstance(out, Contradiction) else out
    stats["splits"] += 1
    stats["max_depth"] = max(stats["max_depth"], depth + 1)
    r, c, cand = _least_unknown_cell(st)
    leaves = []
    while cand:
        bit = cand & -cand
        cand ^= bit
        # candidates are latin-safe, so the assumption itself never clashes
        child = st.clone()
        child.set_cell(r, c, bit.bit_length() - 1, "assume", (), (depth + 1,))
        _saturate(child)
        found = _refute_search(child, depth + 1, max_depth, stats)
        if not isinstance(found, list):
            return found
        leaves.extend(found)
    return leaves


def refute_case(blocks: int, choice: int, split_depth: int = 3) -> RefutationCase:
    """Saturate one centre*a choice and, if needed, case-split up to the
    given depth; every branch must end in a conflict for a refutation."""
    st = _seed_state(blocks, choice)
    _saturate(st)
    stats = {"splits": 0, "max_depth": 0}
    found = _refute_search(st, 0, split_depth, stats)
    if isinstance(found, list):
        return RefutationCase(
            choice, True, tuple(found), stats["splits"], stats["max_depth"], None, None)
    return RefutationCase(
        choice, False, (), stats["splits"], stats["max_depth"],
        found if isinstance(found, Completed) else None,
        found if isinstance(found, Stuck) else None)


def refute_q6(split_depth: int = 3) -> RefutationReport:
    """Run all four centre*a choices for a six-block table; a full report
    with four refuted cases is a machine check that no such quasigroup
    exists."""
    return RefutationReport(6, tuple(refute_case(6, c, split_depth) for c in (1, 2, 3, 4)))


# ---------------------------------------------------------------------------
# trace text and replay
# ---------------------------------------------------------------------------

def _fmt_premises(premises) -> str:
    return ", ".join(f"cell({r},{c})={v}" for (r, c), v in premises)


def trace_text(trace, conflict: Conflict | None = None) -> str:
    """One deduction per line: ``cell(x,y) := v  by RULE from [premises]``."""
    lines = []
    for step in trace:
        lines.append(
            f"cell({step.cell[0]},{step.cell[1]}) := {step.value}"
            f"  by {step.rule} from [{_fmt_premises(step.premises)}]"
        )
    if conflict is not None:
        if conflict.kind == "cell-mismatch":
            what = (f"cell({conflict.cell[0]},{conflict.cell[1]}) := {conflict.value}"
                    f" clashes with existing {conflict.existing}")
        elif conflict.kind in ("row-duplicate", "col-duplicate"):
            what = (f"cell({conflict.cell[0]},{conflict.cell[1]}) := {conflict.value}"
                    f" duplicates a {conflict.kind.split('-')[0]} value")
        else:
            what = f"{conflict.kind} at ({conflict.cell[0]},{conflict.cell[1]}) value {conflict.value}"
        lines.append(
            f"conflict: {what}  by {conflict.rule} from [{_fmt_premises(conflict.premises)}]")
    return "\n".join(lines) + "\n"


# binding length of each rule that reads its binding
_ARITY = {
    "bookend": 2, "strong-elasticity": 2, "left-distributivity": 3,
    "right-distributivity": 3, "mediality": 4, "alterability": 4,
}


class _Replay:
    """Re-derives each trace step from the rule schema against the running
    partial table, kept both by rows (rows[r][c]) and by columns
    (cols[c][r]); raises ReplayError on the first unjustified or malformed
    step."""

    def __init__(self, blocks: int, choice: int):
        n = self.n = 4 * blocks + 1
        self.rows = [[-1] * n for _ in range(n)]
        self.cols = [[-1] * n for _ in range(n)]
        self.seeds = {
            (cell, v): rule for rule, cell, v in seed_assignments(blocks, choice)
        }

    def get(self, r, c):
        if not (0 <= r < self.n and 0 <= c < self.n):
            raise ReplayError(f"cell ({r},{c}) out of range")
        return self.rows[r][c]

    def known(self, r, c):
        v = self.get(r, c)
        if v == -1:
            raise ReplayError(f"premise cell ({r},{c}) not yet known")
        return v

    def open_values(self, r, c) -> set:
        """The values neither row r nor column c holds, at an unknown cell."""
        if self.get(r, c) != -1:
            raise ReplayError(f"latin rule over the known cell ({r},{c})")
        return set(range(self.n)).difference(self.rows[r], self.cols[c])

    def open_cells(self, lines, cross, i, v) -> set:
        """The unknown cells of line i that value v may still take: the
        positions j with lines[i][j] unknown and v absent from cross[j].
        Called with (rows, cols) for row i, (cols, rows) for column i."""
        if not (0 <= i < self.n and 0 <= v < self.n):
            raise ReplayError(f"line {i} or value {v} out of range")
        line = lines[i]
        if v in line:
            raise ReplayError(f"value {v} already present in line {i}")
        return {j for j in range(self.n) if line[j] == -1 and v not in cross[j]}

    def derivation_sides(self, step):
        """The two cells forced equal by this step's link rule."""
        rule, binding = step.rule, step.binding
        if rule == "left-distributivity":
            x, y, z = binding
            return (x, self.known(y, z)), (self.known(x, y), self.known(x, z))
        if rule == "right-distributivity":
            x, y, z = binding
            return (self.known(x, y), z), (self.known(x, z), self.known(y, z))
        if rule == "mediality":
            x, y, z, w = binding
            return ((self.known(x, y), self.known(z, w)),
                    (self.known(x, z), self.known(y, w)))
        x, y, z, w = binding  # alterability
        if self.known(x, y) != self.known(z, w):
            raise ReplayError("alterability premises are not equal products")
        return (y, z), (w, x)

    def verify_step(self, step: Step):
        rule, cell, v, binding = step.rule, step.cell, step.value, step.binding
        r, c = cell
        if not (0 <= r < self.n and 0 <= c < self.n and 0 <= v < self.n):
            raise ReplayError(f"step out of range: {step}")
        if len(binding) != _ARITY.get(rule, len(binding)):
            raise ReplayError(f"{rule} binding of the wrong length: {step}")
        if rule.startswith("seed:"):
            ok = self.seeds.get((cell, v)) == rule
        elif rule == "assume":
            ok = self.rows[r][c] == -1
        elif rule == "bookend":
            x, y = binding
            ok = cell == (self.known(y, x), self.known(x, y)) and v == x
        elif rule == "strong-elasticity":
            # x(yx) = (xy)x = (yx)y over the sides whose inner product is known
            x, y = binding
            u = self.get(y, x)
            w = self.get(x, y)
            sides = ([(x, u), (u, y)] if u != -1 else []) + ([(w, x)] if w != -1 else [])
            ok = cell in sides and any(
                other != cell and self.get(*other) == v for other in sides)
        elif rule == "latin-cell-single":
            ok = self.open_values(r, c) <= {v}
        elif rule == "latin-row-single":
            ok = self.open_cells(self.rows, self.cols, r, v) <= {c}
        elif rule == "latin-col-single":
            ok = self.open_cells(self.cols, self.rows, c, v) <= {r}
        elif rule in ("left-distributivity", "right-distributivity",
                      "mediality", "alterability"):
            s1, s2 = self.derivation_sides(step)
            ok = (cell == s1 and self.get(*s2) == v) or (cell == s2 and self.get(*s1) == v)
        else:
            raise ReplayError(f"unknown rule {rule!r}")
        if not ok:
            raise ReplayError(f"{rule} step not justified: {step}")

    def apply_step(self, step: Step):
        r, c = step.cell
        v = step.value
        if self.rows[r][c] != -1:
            raise ReplayError(f"cell ({r},{c}) assigned twice")
        if v in self.rows[r] or v in self.cols[c]:
            raise ReplayError(f"step duplicates value {v} at ({r},{c})")
        self.rows[r][c] = self.cols[c][r] = v

    def verify_conflict(self, conflict: Conflict):
        kind, (r, c), v = conflict.kind, conflict.cell, conflict.value
        if kind in ("cell-mismatch", "row-duplicate", "col-duplicate"):
            self.verify_step(Step(conflict.rule, conflict.cell, v,
                                  conflict.premises, conflict.binding))
            cur = self.rows[r][c]
            if kind == "cell-mismatch":
                ok = cur not in (-1, v)
            else:
                ok = cur == -1 and v in (self.rows[r] if kind == "row-duplicate" else self.cols[c])
        elif kind == "cell-no-candidate":
            ok = not self.open_values(r, c)
        elif kind == "row-value-impossible":
            ok = not self.open_cells(self.rows, self.cols, r, v)
        elif kind == "col-value-impossible":
            ok = not self.open_cells(self.cols, self.rows, c, v)
        else:
            raise ReplayError(f"unknown conflict kind {kind!r}")
        if not ok:
            raise ReplayError(f"{kind} conflict not justified: {conflict}")


def replay_trace(blocks: int, choice: int, trace, conflict: Conflict | None = None) -> None:
    """Verify every step of a trace against the rule set, then verify the
    final conflict when given; raises ReplayError otherwise."""
    rp = _Replay(blocks, choice)
    for step in trace:
        rp.verify_step(step)
        rp.apply_step(step)
    if conflict is not None:
        rp.verify_conflict(conflict)

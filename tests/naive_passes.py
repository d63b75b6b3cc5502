"""Reference implementations of the deduction engine's rule passes, as they
were before idle rule instances were skipped, the exhaustive scans for
mediality and alterability that quadlat.core decides from structure, and
the searches that quadlat.qn.detect_form and
quadlat.translatable.feasible_k_idempotent_quadratical replace by what the
structure gives, and the sweep walk over every modulus that quadlat.sweep
restricts to the moduli with roots.

Every pass here visits every rule instance and assigns through the
engine's own set_cell, so the engine's alterability pass, which skips
instances, must produce the same new trace steps, the same change flag and
the same conflict as alter_pass.  latin_pass, latin elimination over the
cells, is the oracle for the conflict of the engine's latin scan, which
places no cell: the latin singles latin_pass would place must never be
found at the engine's fixpoints.  latin_lines_pass (latin elimination over the row and
column views), pairs_pass (bookend and strong elasticity), distrib_pass
and mediality_pass have no engine counterpart: the engine does not
schedule those rules, and a saturation that still runs them at each
fixpoint must give the engine's traces.  These functions are test oracles
only.
"""

import math

from quadlat import sweep
from quadlat.cayley import is_quadratical
from quadlat.deduction import _ConflictError
from quadlat.qn import h_chain
from quadlat.steps import Conflict
from quadlat.translatable import build_idempotent_k_translatable
from quadlat.zm import solve_quadratic_congruence


def link(st, cell1, cell2, rule, premise_cells) -> bool:
    """Require the two cells of st to hold equal values; propagate or
    clash.  The premises are the known cells of premise_cells, then the
    cell whose value is copied, or for a clash the first cell."""
    val = st.val
    v1 = val[cell1[0]][cell1[1]]
    v2 = val[cell2[0]][cell2[1]]
    if v1 == v2:
        return False
    cells = st.cells
    prem = tuple([cells[r][c] for r, c in premise_cells])
    if v2 == -1:
        return st.set_cell(
            cell2[0], cell2[1], v1, rule, prem + (cells[cell1[0]][cell1[1]],))
    if v1 == -1:
        return st.set_cell(
            cell1[0], cell1[1], v2, rule, prem + (cells[cell2[0]][cell2[1]],))
    raise _ConflictError(Conflict(
        "cell-mismatch", rule, cell2, v1, prem + (cells[cell1[0]][cell1[1]],)))


def latin_pass(st) -> bool:
    n = st.n
    full = (1 << n) - 1
    val = st.val
    changed = False
    for r in range(n):
        for c in range(n):
            if val[r][c] != -1:
                continue
            cand = ~(st.row_vals[r] | st.col_vals[c]) & full
            if cand == 0:
                raise _ConflictError(Conflict(
                    "cell-no-candidate", "latin-cell", (r, c), -1,
                    st._coverage(r, c)))
            if cand & (cand - 1) == 0:
                v = cand.bit_length() - 1
                changed |= st.set_cell(
                    r, c, v, "latin-cell-single", st._coverage(r, c))
    return changed


def _row_coverage(st, r, cols, v) -> tuple:
    """For each column c of cols in order, the known cell that rules out
    value v at (r, c): the cell itself when known, otherwise the cell of v
    in column c."""
    return tuple(st.cells[r][c] if st.val[r][c] != -1 else st.cells[st.cols[c].index(v)][c]
                 for c in cols)


def _col_coverage(st, c, rows, v) -> tuple:
    """For each row r of rows in order, the known cell that rules out value
    v at (r, c): the cell itself when known, otherwise the cell of v in
    row r."""
    return tuple(st.cells[r][c] if st.val[r][c] != -1 else st.cells[r][st.val[r].index(v)]
                 for r in rows)


def latin_lines_pass(st) -> bool:
    """Latin elimination over the row and column views, which the engine
    does not run: a value missing from a row (column) with one open cell
    left there takes that cell, and with none left is a conflict.  The
    rows are scanned first, then the columns, each by value in increasing
    order."""
    n = st.n
    full = (1 << n) - 1
    val = st.val
    changed = False
    for r in range(n):
        missing = full & ~st.row_vals[r]
        while missing:
            bit = missing & -missing
            missing ^= bit
            v = bit.bit_length() - 1
            spots = [c for c in range(n) if val[r][c] == -1 and not st.col_vals[c] & bit]
            if not spots:
                raise _ConflictError(Conflict(
                    "row-value-impossible", "latin-row", (r, -1), v,
                    _row_coverage(st, r, range(n), v)))
            if len(spots) == 1:
                c = spots[0]
                others = [cc for cc in range(n) if cc != c]
                changed |= st.set_cell(
                    r, c, v, "latin-row-single", _row_coverage(st, r, others, v))
    for c in range(n):
        missing = full & ~st.col_vals[c]
        while missing:
            bit = missing & -missing
            missing ^= bit
            v = bit.bit_length() - 1
            spots = [r for r in range(n) if val[r][c] == -1 and not st.row_vals[r] & bit]
            if not spots:
                raise _ConflictError(Conflict(
                    "col-value-impossible", "latin-col", (-1, c), v,
                    _col_coverage(st, c, range(n), v)))
            if len(spots) == 1:
                r = spots[0]
                others = [rr for rr in range(n) if rr != r]
                changed |= st.set_cell(
                    r, c, v, "latin-col-single", _col_coverage(st, c, others, v))
    return changed


def pairs_pass(st) -> bool:
    n = st.n
    val = st.val
    changed = False
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            u = val[y][x]
            v = val[x][y]
            if u != -1 and v != -1:
                prem = ((y, x), (x, y))
                changed |= st.set_cell(u, v, x, "bookend", prem)
            cells = []
            if u != -1:
                cells.append((x, u))
                cells.append((u, y))
            if v != -1:
                cells.append((v, x))
            if len(cells) >= 2:
                base = []
                if u != -1:
                    base.append((y, x))
                if v != -1:
                    base.append((x, y))
                for a in range(len(cells) - 1):
                    for b in range(a + 1, len(cells)):
                        changed |= link(
                            st, cells[a], cells[b], "strong-elasticity", base)
    return changed


def alter_pass(st) -> bool:
    changed = False
    for v in range(st.n):
        lst = list(zip(st.rows_by_value[v], st.cols_by_value[v]))
        m = len(lst)
        for a in range(m):
            x, y = lst[a]
            for b in range(a + 1, m):
                z, w = lst[b]
                changed |= link(
                    st, (y, z), (w, x), "alterability", ((x, y), (z, w)))
    return changed


def _known_cols(st) -> list:
    """The known columns of each row, in increasing order."""
    return [[c for c, v in enumerate(row) if v != -1] for row in st.val]


def _mask(cols) -> int:
    return sum(1 << c for c in cols)


def distrib_pass(st) -> bool:
    n = st.n
    val = st.val
    changed = False
    kc = _known_cols(st)
    known = [_mask(cols) for cols in kc]
    for x in range(n):
        vx = val[x]
        for y in kc[x]:
            b_xy = vx[y]
            both = known[x] & known[y]
            m2 = both
            while m2:
                bit = m2 & -m2
                m2 ^= bit
                z = bit.bit_length() - 1
                a_yz = val[y][z]
                c_xz = vx[z]
                changed |= link(
                    st, (x, a_yz), (b_xy, c_xz), "left-distributivity",
                    ((y, z), (x, y), (x, z)))
            m2 = both
            while m2:
                bit = m2 & -m2
                m2 ^= bit
                z = bit.bit_length() - 1
                b_xz = vx[z]
                c_yz = val[y][z]
                changed |= link(
                    st, (b_xy, z), (b_xz, c_yz), "right-distributivity",
                    ((x, y), (x, z), (y, z)))
    return changed


def mediality_pass(st) -> bool:
    n = st.n
    val = st.val
    changed = False
    kc = _known_cols(st)
    known = [_mask(cols) for cols in kc]
    for x in range(n):
        vx = val[x]
        cols_x = kc[x]
        for y in cols_x:
            if y == x:
                continue
            a_xy = vx[y]
            ky = known[y]
            for z in cols_x:
                if z == x or z == y:
                    continue
                c_xz = vx[z]
                vz = val[z]
                mask = known[z] & ky
                while mask:
                    bit = mask & -mask
                    mask ^= bit
                    w = bit.bit_length() - 1
                    if w == z or w == y:
                        continue
                    changed |= link(
                        st, (a_xy, vz[w]), (c_xz, val[y][w]), "mediality",
                        ((x, y), (z, w), (x, z), (y, w)))
    return changed


def check_mediality(t):
    # (x*y) * (z*w) = (x*z) * (y*w), every (x, y, z, w) in order
    e = t.entries
    n = t.n
    for x in range(n):
        ex = e[x]
        for y in range(n):
            exy = e[ex[y]]
            ey = e[y]
            for z in range(n):
                ez = e[z]
                exz = e[ex[z]]
                for w in range(n):
                    if exy[ez[w]] != exz[ey[w]]:
                        return (x, y, z, w)
    return None


def check_alterability(t):
    # x*y = z*w  if and only if  y*z = w*x, every (x, y, z, w) in order
    e = t.entries
    n = t.n
    for x in range(n):
        ex = e[x]
        for y in range(n):
            ey = e[y]
            for z in range(n):
                eyz = ey[z]
                ez = e[z]
                for w in range(n):
                    if (ex[y] == ez[w]) != (eyz == e[w][x]):
                        return (x, y, z, w)
    return None


def detect_form(t):
    # every ordered base pair (a, b) in order; the table must be quadratical
    # and of order 4n + 1 with n >= 1.  The chain is built here by its own
    # recurrence, and only its block laws are checked by qn.h_chain, whose
    # blocks must be this chain
    depth = (t.n - 1) // 4
    e = t.entries
    for a in range(t.n):
        for b in range(t.n):
            if a == b:
                continue
            center = e[e[a][b]][a]
            blocks = [(a, e[a][b], e[b][a], b)]
            while len(blocks) < depth:
                p1, p2, p3, p4 = blocks[-1]
                blocks.append((e[p1][p2], e[p2][p4], e[p3][p1], e[p4][p3]))
            covered = {center}
            ok = True
            for blk in blocks:
                for x in blk:
                    if x in covered:
                        ok = False
                        break
                    covered.add(x)
                if not ok:
                    break
            if not ok or len(covered) != t.n:
                continue
            try:
                chain = h_chain(t, a, b, depth)
            except ValueError:
                continue
            assert chain.center == center and chain.blocks == tuple(blocks)
            return depth, a, b
    return None


def feasible_k_idempotent_quadratical(n):
    # build the idempotent k-translatable table for every admissible k and
    # keep the quadratical ones; n odd
    out = set()
    for k in range(2, n):
        if math.gcd(n, k) != 1 or math.gcd(n, k - 1) != 1:
            continue
        if is_quadratical(build_idempotent_k_translatable(n, k)):
            out.add(k)
    return out


def rows_for_modulus(m):
    """One validated row per solution a of the quadratic congruence mod m,
    in increasing a; empty below the smallest admissible order 5."""
    if m < 5:
        return []
    return [sweep._row(m, a) for a in solve_quadratic_congruence(m)]


def sweep_rows(first, last, representatives=False):
    # rows_for_modulus for every m in first..last, roots or not
    return [r for m in range(first, last + 1) for r in rows_for_modulus(m)
            if not representatives or r.a < r.b]


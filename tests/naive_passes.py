"""Reference implementations of the deduction engine's rule passes, as they
were before idle rule instances were skipped, the exhaustive scans for
mediality and alterability that quadlat.core decides from structure, and
the searches that quadlat.qn.detect_form and
quadlat.translatable.feasible_k_idempotent_quadratical replace by what the
structure gives, and the sweep walk over every modulus that quadlat.sweep
restricts to the moduli with roots.

Every pass here visits every rule instance and calls the engine's own
link/set_cell on it, so a pass of quadlat.deduction._State that skips
instances must produce the same new trace steps, the same change flag and
the same conflict.  distrib_pass and mediality_pass have no engine
counterpart: the engine does not schedule those rules, and a saturation
that still runs them at each fixpoint must give the engine's traces.
These functions are test oracles only.
"""

import math

from quadlat import sweep
from quadlat.cayley import is_quadratical
from quadlat.deduction import _VIEWS, _ConflictError
from quadlat.qn import _chain_blocks, _validate_chain
from quadlat.steps import Conflict
from quadlat.translatable import build_idempotent_k_translatable

CELL, ROW, COL = _VIEWS


def latin_pass(st) -> bool:
    n = st.n
    full = (1 << n) - 1
    val = st.val
    changed = False
    for r in range(n):
        row_v = st.row_vals[r]
        for c in range(n):
            if val[r][c] != -1:
                continue
            cand = ~(row_v | st.col_vals[c]) & full
            if cand == 0:
                raise _ConflictError(Conflict(
                    "cell-no-candidate", "latin-cell", (r, c), -1, -1,
                    st._coverage(CELL, r, c), (r, c)))
            if cand & (cand - 1) == 0:
                v = cand.bit_length() - 1
                changed |= st.set_cell(
                    r, c, v, "latin-cell-single", st._coverage(CELL, r, c), (r, c))
                row_v = st.row_vals[r]
    for r in range(n):
        missing = full & ~st.row_vals[r]
        while missing:
            bit = missing & -missing
            missing ^= bit
            v = bit.bit_length() - 1
            spot = -1
            count = 0
            for c in range(n):
                if val[r][c] == -1 and not (st.col_vals[c] & bit):
                    spot = c
                    count += 1
                    if count > 1:
                        break
            if count == 0:
                raise _ConflictError(Conflict(
                    "row-value-impossible", "latin-row", (r, -1), v, -1,
                    st._coverage(ROW, r, v), (r, v)))
            if count == 1:
                changed |= st.set_cell(
                    r, spot, v, "latin-row-single", st._coverage(ROW, r, v), (r, v))
    for c in range(n):
        missing = full & ~st.col_vals[c]
        while missing:
            bit = missing & -missing
            missing ^= bit
            v = bit.bit_length() - 1
            spot = -1
            count = 0
            for r in range(n):
                if val[r][c] == -1 and not (st.row_vals[r] & bit):
                    spot = r
                    count += 1
                    if count > 1:
                        break
            if count == 0:
                raise _ConflictError(Conflict(
                    "col-value-impossible", "latin-col", (-1, c), v, -1,
                    st._coverage(COL, c, v), (c, v)))
            if count == 1:
                changed |= st.set_cell(
                    spot, c, v, "latin-col-single", st._coverage(COL, c, v), (c, v))
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
                prem = (((y, x), u), ((x, y), v))
                changed |= st.set_cell(u, v, x, "bookend", prem, (x, y))
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
                        changed |= st.link(
                            cells[a], cells[b], "strong-elasticity", (x, y), base)
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
                changed |= st.link(
                    (y, z), (w, x), "alterability", (x, y, z, w),
                    ((x, y), (z, w)))
    return changed


def _known_cols(st) -> list:
    """The known columns of each row, in increasing order."""
    return [[c for c in range(st.n) if mask >> c & 1] for mask in st.row_known]


def distrib_pass(st) -> bool:
    n = st.n
    val = st.val
    changed = False
    kc = _known_cols(st)
    for x in range(n):
        vx = val[x]
        for y in kc[x]:
            b_xy = vx[y]
            both = st.row_known[x] & st.row_known[y]
            m2 = both
            while m2:
                bit = m2 & -m2
                m2 ^= bit
                z = bit.bit_length() - 1
                a_yz = val[y][z]
                c_xz = vx[z]
                changed |= st.link(
                    (x, a_yz), (b_xy, c_xz), "left-distributivity",
                    (x, y, z), ((y, z), (x, y), (x, z)))
            m2 = both
            while m2:
                bit = m2 & -m2
                m2 ^= bit
                z = bit.bit_length() - 1
                b_xz = vx[z]
                c_yz = val[y][z]
                changed |= st.link(
                    (b_xy, z), (b_xz, c_yz), "right-distributivity",
                    (x, y, z), ((x, y), (x, z), (y, z)))
    return changed


def mediality_pass(st) -> bool:
    n = st.n
    val = st.val
    changed = False
    kc = _known_cols(st)
    for x in range(n):
        vx = val[x]
        cols_x = kc[x]
        for y in cols_x:
            if y == x:
                continue
            a_xy = vx[y]
            ky = st.row_known[y]
            for z in cols_x:
                if z == x or z == y:
                    continue
                c_xz = vx[z]
                vz = val[z]
                mask = st.row_known[z] & ky
                while mask:
                    bit = mask & -mask
                    mask ^= bit
                    w = bit.bit_length() - 1
                    if w == z or w == y:
                        continue
                    changed |= st.link(
                        (a_xy, vz[w]), (c_xz, val[y][w]), "mediality",
                        (x, y, z, w), ((x, y), (z, w), (x, z), (y, w)))
    return changed


PASSES = {
    "latin_pass": latin_pass,
    "pairs_pass": pairs_pass,
    "alter_pass": alter_pass,
}


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
    # and of order 4n + 1 with n >= 1
    depth = (t.n - 1) // 4
    e = t.entries
    for a in range(t.n):
        for b in range(t.n):
            if a == b:
                continue
            center = e[e[a][b]][a]
            blocks = _chain_blocks(t, a, b, depth)
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
            if ok and len(covered) == t.n and _validate_chain(t, blocks, center) is None:
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


def sweep_rows(first, last, representatives=False):
    # rows_for_modulus for every m in first..last, roots or not
    return [r for m in range(first, last + 1) for r in sweep.rows_for_modulus(m)
            if not representatives or r.a < r.b]


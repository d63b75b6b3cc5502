"""The trace auditor: replay_trace re-derives every step of a deduction
trace, and its final conflict, from the rule schema.

It shares only the trace records (quadlat.steps) with the engine in
quadlat.deduction, and reads none of the engine's state, so a trace is
checked independently of the code that made it.  Each step must print
the premises its rule reads.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import is_, itemgetter

from .cayley import MAX_ORDER
from .errors import SearchCapExceeded
from .steps import Conflict, ReplayError, Step, _collector_paused, seed_steps


class _Replay:
    """Re-derives each trace step from the rule schema against the running
    partial table, kept by rows (rows[r][c]) with a bitmask of the values
    each row and each column holds; raises ReplayError on the first
    unjustified or malformed step.
    Each rule's check is found through _STEP_CHECKS.  The premises a step
    or conflict prints must each name a known cell with its value, and
    must name every known cell its check reads: for alterability the two
    equal products, then the cell whose value the step copies, in that
    order, and for a latin rule one cell per value or position it rules
    out.  A step by any rule but these, assume and the seed rules is
    refused as unknown: bookend, strong elasticity, distributivity and
    mediality too, since the engine does not run them."""

    def __init__(self, blocks: int, choice: int):
        n = self.n = 4 * blocks + 1
        self.full = (1 << n) - 1
        self.rows = [[-1] * n for _ in range(n)]
        self.row_vals = [0] * n
        self.col_vals = [0] * n
        self.seeds = {(step.cell, step.value): step.rule for step in seed_steps(blocks, choice)}

    def copy(self) -> "_Replay":
        """A replay of its own from the same table; the seed map, which no
        step changes, is shared."""
        twin = _Replay.__new__(_Replay)
        twin.n = self.n
        twin.full = self.full
        twin.rows = [row[:] for row in self.rows]
        twin.row_vals = self.row_vals[:]
        twin.col_vals = self.col_vals[:]
        twin.seeds = self.seeds
        return twin

    def latin(self, r, c, v, premises, binding=(), *, view, conflict=False) -> bool:
        """The latin check of one view: a step places k at (i, j) when its
        premises rule out every other k, and a conflict when they rule out
        every k.  A premise rules out its own k when its view coordinates
        share i or j.  (i, j) must be in range and not yet placed.  The
        premises are known cells (check_premises), so no k they rule out
        is open at (i, j): the open ones need no scan of the table."""
        ijk, placed = view
        i, j, k = ijk((r, c, v))
        if not (0 <= i < self.n and 0 <= j < self.n) or placed(self, i, j):
            raise ReplayError(f"latin rule over ({i},{j}), out of range or already placed")
        cited = 0
        for cell, u in premises:
            pi, pj, pk = ijk((*cell, u))
            if pi == i or pj == j:
                cited |= 1 << pk
        return cited | (0 if conflict else 1 << k) == self.full

    def check_premises(self, premises):
        """Each premise ((r, c), v) names a cell already known to hold v."""
        n = self.n
        rows = self.rows
        try:
            for (r, c), v in premises:
                if not (0 <= r < n and 0 <= c < n) or v == -1 or rows[r][c] != v:
                    raise ReplayError(f"premise cell({r},{c})={v} is not a known cell")
        except (TypeError, ValueError):
            raise ReplayError(f"malformed premises {premises!r}") from None

    def verify_step(self, step: Step):
        try:
            rule, (r, c), v, premises, binding = step
        except (TypeError, ValueError):
            raise ReplayError(f"malformed step {step!r}") from None
        n = self.n
        if not (type(r) is type(c) is type(v) is int
                and 0 <= r < n and 0 <= c < n and 0 <= v < n):
            raise ReplayError(f"step cell or value not in 0..{n - 1}: {step}")
        if type(rule) is not str:
            raise ReplayError(f"unknown rule {rule!r}")
        entry = _STEP_CHECKS.get(rule)
        if entry is None:
            if premises:
                self.check_premises(premises)
            if not rule.startswith("seed:"):
                raise ReplayError(f"unknown rule {rule!r}")
            ok = self.seeds.get(((r, c), v)) == rule
        else:
            arity, own, check = entry
            try:
                # the check itself compares the first own premises with
                # known cells
                rest = premises[own:]
                if rest:
                    self.check_premises(rest)
                if arity and len(binding) != arity:
                    raise ReplayError(f"{rule} binding of the wrong length: {step}")
                ok = check(self, r, c, v, premises, binding)
            except (TypeError, ValueError):
                raise ReplayError(f"malformed binding or premises: {step}") from None
        if not ok:
            raise ReplayError(f"{rule} step not justified: {step}")

    # -- one check per rule, each true when the step is justified ----------

    def _assume(self, r, c, v, premises, binding):
        return self.rows[r][c] == -1

    def _alterability(self, r, c, v, premises, binding):
        # the engine prints the two products, then the cell the step
        # copies, and these three premises are compared by position
        x, y, z, w = binding
        n = self.n
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n and 0 <= w < n):
            raise ReplayError(f"alterability binding out of range: {binding}")
        rows = self.rows
        xy = rows[x][y]
        if xy == -1 or rows[z][w] == -1:
            raise ReplayError(f"alterability premise of {binding} not yet known")
        if xy != rows[z][w]:
            raise ReplayError("alterability premises are not equal products")
        if r == y and c == z:
            copied = (w, x)
            held = rows[w][x]
        elif r == w and c == x:
            copied = (y, z)
            held = rows[y][z]
        else:
            return False
        if premises[:3] != (((x, y), xy), ((z, w), xy), (copied, v)):
            raise ReplayError(f"alterability premises of {binding} not cited in order")
        return held == v

    def apply_step(self, step: Step):
        r, c = step.cell
        v = step.value
        if self.rows[r][c] != -1:
            raise ReplayError(f"cell ({r},{c}) assigned twice")
        if (self.row_vals[r] | self.col_vals[c]) >> v & 1:
            raise ReplayError(f"step duplicates value {v} at ({r},{c})")
        self.rows[r][c] = v
        self.row_vals[r] |= 1 << v
        self.col_vals[c] |= 1 << v

    def verify_conflict(self, conflict: Conflict):
        try:
            kind, (r, c), v, premises = (
                conflict.kind, conflict.cell, conflict.value, conflict.premises)
        except (AttributeError, TypeError, ValueError):
            raise ReplayError(f"malformed conflict {conflict!r}") from None
        if not (type(r) is type(c) is type(v) is int):
            raise ReplayError(f"malformed conflict {conflict!r}")
        self.check_premises(premises)
        if kind in ("cell-mismatch", "row-duplicate", "col-duplicate"):
            self.verify_step(Step(conflict.rule, conflict.cell, v,
                                  premises, conflict.binding))
            cur = self.rows[r][c]
            if kind == "cell-mismatch":
                ok = cur not in (-1, v) and cur == conflict.existing
            else:
                # a cell of v in the row or column, and the premise naming it
                axis, line = (0, r) if kind == "row-duplicate" else (1, c)
                held = (self.row_vals, self.col_vals)[axis][line]
                ok = cur == -1 and held >> v & 1 and any(
                    cell[axis] == line and u == v for cell, u in premises)
        elif kind in _CONFLICT_VIEWS:
            ok = self.latin(r, c, v, premises, view=_CONFLICT_VIEWS[kind], conflict=True)
        else:
            raise ReplayError(f"unknown conflict kind {kind!r}")
        if not ok:
            raise ReplayError(f"{kind} conflict not justified: {conflict}")


# The three conjugates of the partial latin square.  A view fixes a pair
# (i, j) and places the third coordinate k: ijk picks (i, j, k) out of
# (row, column, value), and placed(rp, i, j) is true when a known cell of
# the replay rp already has view coordinates (i, j).
_CELL = (itemgetter(0, 1, 2), lambda rp, r, c: rp.rows[r][c] != -1)
_ROW = (itemgetter(0, 2, 1), lambda rp, r, v: rp.row_vals[r] >> v & 1)
_COL = (itemgetter(1, 2, 0), lambda rp, c, v: rp.col_vals[c] >> v & 1)

_CONFLICT_VIEWS = {
    "cell-no-candidate": _CELL, "row-value-impossible": _ROW, "col-value-impossible": _COL}

# rule -> (binding length, or 0 when the rule does not read its binding;
# how many leading premises the check compares by position with known
# cells; and the check); seed rules are looked up in the seed list instead
_STEP_CHECKS = {
    "assume": (0, 0, _Replay._assume),
    "alterability": (4, 3, _Replay._alterability),
    "latin-cell-single": (0, 0, partial(_Replay.latin, view=_CELL)),
    "latin-row-single": (0, 0, partial(_Replay.latin, view=_ROW)),
    "latin-col-single": (0, 0, partial(_Replay.latin, view=_COL)),
}


# A few (blocks, choice) at a time: a refutation replays the leaves of one
# block count's four choices.  Each entry holds a whole table, which at
# 256 blocks is about 17 MB.  Typed like seed_steps.
@lru_cache(maxsize=4, typed=True)
def _seeded(blocks: int, choice: int):
    """(seeds, rp): the seed steps of (blocks, choice), and a replay that
    has verified and applied all of them, or None when a seed is refused
    (the seeds of some choices clash)."""
    seeds = seed_steps(blocks, choice)
    rp = _Replay(blocks, choice)
    try:
        for step in seeds:
            rp.verify_step(step)
            rp.apply_step(step)
    except ReplayError:
        return seeds, None
    return seeds, rp


@_collector_paused
def replay_trace(blocks: int, choice: int, trace, conflict: Conflict | None = None) -> None:
    """Verify every step of a trace against the rule set, then verify the
    final conflict when given; raises ReplayError otherwise.

    A trace whose leading steps are the very objects of
    steps.seed_steps(blocks, choice), as the engine's traces are, is
    replayed from a copy of a table on which those seeds were verified
    once; any other trace from an empty table.  Both verify each step
    with the same checks on the same table, so they accept the same
    traces.  A block count whose table would exceed cayley.MAX_ORDER
    raises SearchCapExceeded before any table is built, as the engine
    refuses it.  Pauses the process's cyclic garbage collector while it runs
    (see steps._collector_paused)."""
    if 4 * blocks + 1 > MAX_ORDER:
        raise SearchCapExceeded(
            f"{blocks} blocks exceed the cap of {(MAX_ORDER - 1) // 4} blocks "
            f"(order {MAX_ORDER})")
    seeds, seeded = _seeded(blocks, choice)
    trace = tuple(trace)
    if seeded is not None and len(trace) >= len(seeds) and all(map(is_, seeds, trace)):
        rp = seeded.copy()
        trace = trace[len(seeds):]
    else:
        rp = _Replay(blocks, choice)
    for step in trace:
        rp.verify_step(step)
        rp.apply_step(step)
    if conflict is not None:
        rp.verify_conflict(conflict)

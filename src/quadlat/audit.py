"""The trace auditor: replay_trace re-derives every step of a deduction
trace, and its final conflict, from the rule schema.

It shares only the trace records (quadlat.steps) with the engine in
quadlat.deduction, and reads none of the engine's state, so a trace is
checked independently of the code that made it.  Each step must print
the premises its rule reads, each a known cell (r, c) whose value the
auditor reads from the table it has rebuilt, so no premise states a value
that could disagree with the table.  Every trace replays from an empty
table, its seed steps verified like any other, so a refutation leaf
trimmed to the cone of its conflict keeps only the seeds that the cone
cites.

The engine runs one rule and one scan, so a trace holds seeds,
assumptions and alterability steps, and ends, in a refutation leaf, with
a clash, a duplicate or the latin scan's cell-no-candidate conflict.
_Replay.verify_step checks those three step kinds directly, with no rule
table, and reads an alterability step's x*y = z*w from the cells of its
first two premises.
"""

from functools import lru_cache

from .qn import seed_assignments
from .steps import Conflict, ReplayError, Step, _collector_paused, check_blocks


class _Replay:
    """Re-derives each trace step from the rule schema against the running
    partial table, kept by rows (rows[r][c]) with a bitmask of the values
    each row and each column holds; raises ReplayError on the first
    unjustified or malformed step.
    verify_step checks the engine's three step kinds directly: a seed must
    be in the seed set and an assumption must name an unknown cell, each
    citing no premise, and an alterability step must follow from its
    premises.  A clash or duplicate conflict is checked as a step of its
    rule at its cell, a duplicate's last premise, its witness, set aside;
    one ruled assume is refused.  The premises a step or conflict prints
    must each name a known cell, and must name every known cell its check
    reads: for alterability the two equal products, then the cell whose
    value the step copies, in that order, and for a cell-no-candidate
    conflict one cell per value it rules out.  A step by any other rule is
    refused as unknown, and so is a conflict of any kind but a clash, a
    duplicate and cell-no-candidate: a latin single over a cell, a row or
    a column (latin-cell-single, latin-row-single, latin-col-single),
    row-value-impossible and its column twin, bookend, strong elasticity,
    distributivity and mediality too, since the engine does not run them."""

    def __init__(self, blocks: int, choice: int):
        n = self.n = 4 * blocks + 1
        self.full = (1 << n) - 1
        self.rows = [[-1] * n for _ in range(n)]
        self.row_vals = [0] * n
        self.col_vals = [0] * n
        self.seeds = _seed_rules(blocks, choice)

    def latin(self, r, c, premises) -> bool:
        """Latin elimination at cell (r, c): a cell-no-candidate conflict
        there is justified when its premises rule out every value.  A
        premise rules out the value its cell holds when it shares row r or
        column c.  (r, c) must be in range and not yet placed.  The
        premises are known cells (check_premises), so no value they rule
        out is open at (r, c): the open ones need no scan of the table."""
        if not (0 <= r < self.n and 0 <= c < self.n) or self.rows[r][c] != -1:
            raise ReplayError(f"latin rule over ({r},{c}), out of range or already placed")
        cited = 0
        for pr, pc in premises:
            if pr == r or pc == c:
                cited |= 1 << self.rows[pr][pc]
        return cited == self.full

    def check_premises(self, premises):
        """Each premise (r, c) is a pair of ints in range that names a known
        cell; a bool, which indexes the table like 0 or 1, is refused."""
        n = self.n
        rows = self.rows
        try:
            for r, c in premises:
                if not (type(r) is type(c) is int and 0 <= r < n and 0 <= c < n
                        and rows[r][c] != -1):
                    raise ReplayError(f"premise cell({r},{c}) is not a known cell")
        except (TypeError, ValueError):
            raise ReplayError(f"malformed premises {premises!r}") from None

    def verify_step(self, step: Step):
        try:
            rule, (r, c), v, premises = step
        except (TypeError, ValueError):
            raise ReplayError(f"malformed step {step!r}") from None
        n = self.n
        if not (type(r) is type(c) is type(v) is int
                and 0 <= r < n and 0 <= c < n and 0 <= v < n):
            raise ReplayError(f"step cell or value not in 0..{n - 1}: {step}")
        self.check_premises(premises)
        if rule == "alterability":
            ok = self._alterability(r, c, v, premises)
        elif rule == "assume":
            ok = not premises and self.rows[r][c] == -1
        elif type(rule) is str and rule.startswith("seed:"):
            ok = not premises and self.seeds.get(((r, c), v)) == rule
        else:
            raise ReplayError(f"unknown rule {rule!r}")
        if not ok:
            raise ReplayError(f"{rule} step not justified: {step}")

    def _alterability(self, r, c, v, premises) -> bool:
        """x*y = z*w gives y*z = w*x.  The premises cite the products (x, y)
        and (z, w), then the cell the step copies, compared by position;
        any further one need only be known.  verify_step has checked every
        premise against the table, its range first, so the values are read
        from the table."""
        try:
            (x, y), (z, w), copied, *_ = premises
        except ValueError:
            raise ReplayError(f"alterability premises not cited: {premises!r}") from None
        rows = self.rows
        if rows[x][y] != rows[z][w]:
            raise ReplayError("alterability premises are not equal products")
        if (r, c) == (y, z):
            return copied == (w, x) and rows[w][x] == v
        return (r, c) == (w, x) and copied == (y, z) and rows[y][z] == v

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
            # an assumption is made latin-safe, so one that clashes refutes
            # only itself, not the branch the conflict would end
            if conflict.rule == "assume":
                raise ReplayError(f"conflict ruled assume: {conflict}")
            # a duplicate's last premise is its witness, the cell of v in
            # the line, which the rule of its step does not read
            cited = premises if kind == "cell-mismatch" else premises[:-1]
            self.verify_step(Step(conflict.rule, conflict.cell, v, cited))
            cur = self.rows[r][c]
            if kind == "cell-mismatch":
                ok = cur not in (-1, v)
            else:
                # a cell of v in the row or column, and the premise naming it
                axis, line = (0, r) if kind == "row-duplicate" else (1, c)
                held = (self.row_vals, self.col_vals)[axis][line]
                ok = cur == -1 and held >> v & 1 and any(
                    (pr, pc)[axis] == line and self.rows[pr][pc] == v
                    for pr, pc in premises)
        elif kind == "cell-no-candidate":
            ok = self.latin(r, c, premises)
        else:
            raise ReplayError(f"unknown conflict kind {kind!r}")
        if not ok:
            raise ReplayError(f"{kind} conflict not justified: {conflict}")


# One entry per (blocks, choice): a refutation replays the leaves of one
# block count's four choices, each leaf from an empty table, so the map is
# built once per choice instead of once per leaf.  Typed, so that 5.0
# blocks are not served the map of 5.
@lru_cache(maxsize=4, typed=True)
def _seed_rules(blocks: int, choice: int) -> dict:
    """{(cell, value): rule} over qn.seed_assignments(blocks, choice); no
    step changes it."""
    return {(cell, v): rule for rule, cell, v in seed_assignments(blocks, choice)}


@_collector_paused
def replay_trace(blocks: int, choice: int, trace, conflict: Conflict | None = None) -> None:
    """Verify every step of a trace against the rule set, from an empty
    table, then verify the final conflict when given; raises ReplayError
    otherwise.  A block count or choice that is not an int raises
    ValueError, and a block count above steps.MAX_BLOCKS SearchCapExceeded,
    before any table or cache entry is built, as the engine refuses them.
    Pauses the process's cyclic garbage collector while it runs (see
    steps._collector_paused)."""
    check_blocks(blocks, choice)
    rp = _Replay(blocks, choice)
    for step in trace:
        rp.verify_step(step)
        rp.apply_step(step)
    if conflict is not None:
        rp.verify_conflict(conflict)

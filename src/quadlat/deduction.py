"""Forward-chaining completion of block-form Cayley tables.

A partial table over the symbols {centre} + H1..Hn is seeded from the
block laws plus one choice for centre*a, then saturated under two rules,
latin elimination and alterability, repeated until neither assigns a
cell.  Each pass scans in a fixed order, so traces are deterministic.
Known cells never change: a clashing deduction is a conflict, not an
overwrite.  Bookend, strong elasticity, left and right distributivity and
mediality also hold in a quadratical quasigroup but are not scheduled: at
every fixpoint of the two rules, over 1-30 blocks in complete_qn and in
every branch of refute_case, they assigned no cell and raised no
conflict.  The rules are monotone, so adding them would reach the same
fixpoints.  The auditor, replay_trace, lives in quadlat.audit and is read
from here on first use, so a process that only deduces never loads it.
It accepts only the rules the engine emits, so it refuses a step by any
of the five as an unknown rule.

refute_case keeps each Contradiction leaf's trace trimmed to the cone of
its conflict (_conflict_cone): the seed steps, then only the steps the
conflict rests on, followed back through their premises, the backward
check of DRAT-trim (Wetzler, Heule and Hunt, SAT 2014).  At 12 blocks that
keeps 39,021 of the leaves' 92,380 steps.  complete_qn's outcomes, and a
Completed or Stuck search outcome, keep every step.

Skip invariant.  A pass drops every rule instance that provably would
neither assign a cell nor raise a conflict, and runs the per-instance code
on the rest in the original order, so traces, conflicts, splits and leaves
are those of a pass that visits every instance:

- Alterability links two cells, idle when both hold the same value,
  unknown included.  It compares, per first cell, a row of the table
  against a column of its transposed view over all the value's cells at
  once.
- Counting bound (latin elimination, one rule over the three views of
  _VIEWS).  A pair (i, j) of a view has one third coordinate or none
  only when |xs[i]| + |ys[j]| >= n-1, since each known cell rules out at
  most one k.  In the cell view these are the known cells of row r and
  of column c; in the row (column) view, the known cells of the line and
  the cells of v.  The counts are exact when an instance is visited:
  an assignment of the pass adds one k to one ys[j], so it raises that
  one count by one.

Passes keep no memory between passes and read only the current table:
remembering which instances were idle, to skip them until an input
changed, left every trace the same but made refute_case slower (5-12
blocks x 4 choices: 0.89 s with it, 0.77 s without, medians on 2 CPUs
under Python 3.11), since that bookkeeping in Python cost more than the
tuple comparisons it skipped.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, itemgetter, ne
from typing import NamedTuple

from .cayley import MAX_ORDER, CayleyTable, is_quadratical
from .errors import SearchCapExceeded
from .qn import canonical_labels
from .steps import Conflict, Step, _collector_paused, seed_steps


class PartialTable(NamedTuple):
    n: int
    entries: tuple[tuple, ...]  # int or None per cell
    trace: tuple[Step, ...]

    def known_count(self) -> int:
        return sum(1 for row in self.entries for v in row if v is not None)


class Completed(NamedTuple):
    table: CayleyTable
    trace: tuple[Step, ...]
    blocks: int
    choice: int


class Contradiction(NamedTuple):
    conflict: Conflict
    trace: tuple[Step, ...]
    blocks: int
    choice: int


class Stuck(NamedTuple):
    partial: PartialTable
    blocks: int
    choice: int


class _ConflictError(Exception):
    def __init__(self, record):
        self.record = record


# ---------------------------------------------------------------------------
# engine state
# ---------------------------------------------------------------------------

class _State:
    # facts[r][c] is the one ((r, c), v) tuple of a known cell, made when
    # set_cell assigns it and None before: the cell of its Step (unless the
    # step is a shared seed step, see _seed_state) and every premise or
    # conflict record that names the known cell reference it, so a trace
    # holds one premise object per cell, not one per mention.  step_at[r][c]
    # is the index in trace of the step that assigned the known cell, and
    # seeded the number of seed steps that open the trace: _conflict_cone
    # follows a conflict's premises back through them.
    __slots__ = (
        "n", "blocks", "choice", "val", "cols", "facts", "step_at", "row_vals",
        "col_vals", "row_known", "col_known", "value_rows", "value_cols",
        "rows_by_value", "cols_by_value", "unknown", "trace", "seeded", "conflict",
    )

    def __init__(self, blocks: int, choice: int):
        n = 4 * blocks + 1
        self.n = n
        self.blocks = blocks
        self.choice = choice
        self.val = [[-1] * n for _ in range(n)]
        # the same table by columns: cols[c][r] = val[r][c]
        self.cols = [[-1] * n for _ in range(n)]
        self.facts = [[None] * n for _ in range(n)]
        self.step_at = [[-1] * n for _ in range(n)]
        self.row_vals = [0] * n
        self.col_vals = [0] * n
        self.row_known = [0] * n
        self.col_known = [0] * n
        # bitmasks of the rows and of the columns that hold each value
        self.value_rows = [0] * n
        self.value_cols = [0] * n
        # the cells of each value in assignment order, as a list of rows and
        # a parallel list of columns
        self.rows_by_value = [[] for _ in range(n)]
        self.cols_by_value = [[] for _ in range(n)]
        self.unknown = n * n
        self.trace = []
        self.seeded = 0
        self.conflict = None

    def clone(self) -> "_State":
        st = _State.__new__(_State)
        st.n = self.n
        st.blocks = self.blocks
        st.choice = self.choice
        st.val = [row[:] for row in self.val]
        st.cols = [col[:] for col in self.cols]
        st.facts = [row[:] for row in self.facts]
        st.step_at = [row[:] for row in self.step_at]
        st.row_vals = self.row_vals[:]
        st.col_vals = self.col_vals[:]
        st.row_known = self.row_known[:]
        st.col_known = self.col_known[:]
        st.value_rows = self.value_rows[:]
        st.value_cols = self.value_cols[:]
        st.rows_by_value = [lst[:] for lst in self.rows_by_value]
        st.cols_by_value = [lst[:] for lst in self.cols_by_value]
        st.unknown = self.unknown
        st.trace = self.trace[:]
        st.seeded = self.seeded
        st.conflict = None
        return st

    # -- assignment ---------------------------------------------------------

    def set_cell(self, r, c, v, rule, premises, binding) -> bool:
        row = self.val[r]
        cur = row[c]
        if cur == v:
            return False
        if cur != -1:
            raise _ConflictError(Conflict(
                "cell-mismatch", rule, (r, c), v, cur, premises, binding))
        bit = 1 << v
        facts = self.facts
        if self.row_vals[r] & bit:
            raise _ConflictError(Conflict(
                "row-duplicate", rule, (r, c), v, -1,
                premises + (facts[r][row.index(v)],), binding))
        if self.col_vals[c] & bit:
            raise _ConflictError(Conflict(
                "col-duplicate", rule, (r, c), v, -1,
                premises + (facts[self.cols[c].index(v)][c],), binding))
        cell = (r, c)
        facts[r][c] = (cell, v)
        self.step_at[r][c] = len(self.trace)
        row[c] = v
        self.cols[c][r] = v
        self.row_vals[r] |= bit
        self.col_vals[c] |= bit
        self.row_known[r] |= 1 << c
        self.col_known[c] |= 1 << r
        self.value_rows[v] |= 1 << r
        self.value_cols[v] |= 1 << c
        self.rows_by_value[v].append(r)
        self.cols_by_value[v].append(c)
        self.unknown -= 1
        self.trace.append(Step(rule, cell, v, premises, binding))
        return True

    # -- rule passes --------------------------------------------------------

    def latin_pass(self) -> bool:
        changed = False
        for view in _VIEWS:
            changed |= self._latin_view(view)
        return changed

    def _latin_view(self, view) -> bool:
        # Only the pairs (i, j) the counting bound allows are examined:
        # |xs[i]| + |ys[j]| >= n-1, kept exact as each assignment raises
        # one count (see the module docstring).
        rcv = view.rcv
        xs, ys, placed = view.planes(self)
        n = self.n
        lim = n - 1
        full = (1 << n) - 1
        changed = False
        ys_ge = _at_least([m.bit_count() for m in ys], n)
        for i in range(n):
            todo = full & ~placed[i] & ys_ge[lim - xs[i].bit_count()]
            while todo:
                bit = todo & -todo
                todo ^= bit
                j = bit.bit_length() - 1
                cand = ~(xs[i] | ys[j]) & full
                if cand == 0:
                    r, c, v = rcv((i, j, -1))
                    raise _ConflictError(Conflict(
                        view.kind, view.rule, (r, c), v, -1, self._coverage(view, i, j),
                        (i, j)))
                if cand & (cand - 1) == 0:
                    r, c, v = rcv((i, j, cand.bit_length() - 1))
                    changed |= self.set_cell(
                        r, c, v, view.single, self._coverage(view, i, j), (i, j))
                    # the assignment added k to ys[j] alone
                    ys_ge[ys[j].bit_count()] |= bit
                    todo = (full & ~placed[i] & ys_ge[lim - xs[i].bit_count()]
                            & -(bit << 1))
        return changed

    def _coverage(self, view, i, j) -> tuple:
        """The known cells that rule out the third coordinates of (i, j) in
        a view, by k in increasing order: the cell in plane i when xs[i]
        holds k, and otherwise the one in plane j."""
        rcv = view.rcv
        xs, ys, _ = view.planes(self)
        val = self.val
        cols = self.cols
        facts = self.facts
        x = xs[i]
        out = []
        ruled_out = x | ys[j]
        while ruled_out:
            bit = ruled_out & -ruled_out
            ruled_out ^= bit
            k = bit.bit_length() - 1
            # the known triple of plane i or plane j with third coordinate
            # k; a missing row or column is read off the table
            r, c, v = rcv((i, -1, k) if x & bit else (-1, j, k))
            if r == -1:
                r = cols[c].index(v)
            elif c == -1:
                c = val[r].index(v)
            out.append(facts[r][c])
        return tuple(out)

    def alter_pass(self) -> bool:
        # x*y = z*w implies y*z = w*x, over pairs of equal known cells; the
        # reversed pair yields the same cell equality, so one link suffices.
        # Number the cells (x_a, y_a) of a value in assignment order: pair
        # (a, b), a < b, links A[a][b] = val[y_a][x_b] to A[b][a], so its
        # pairs are the asymmetries of the matrix A.  Row a of A is row y_a
        # at the x_b, row a of its transpose column x_a at the y_b; one
        # comparison of the two covers every pair of cell a.
        n = self.n
        val = self.val
        cols = self.cols
        facts = self.facts
        changed = False
        for v in range(n):
            xs = self.rows_by_value[v]
            ys = self.cols_by_value[v]
            m = len(xs)
            if m < 2:
                continue
            at_x = itemgetter(*xs)
            at_y = itemgetter(*ys)
            for a in range(m - 1):
                x = xs[a]
                y = ys[a]
                row = at_x(val[y])
                col = at_y(cols[x])
                if row == col:
                    continue
                # the pairs that differ now are the ones to link, with the
                # values read here: a value holds one cell per row and per
                # column, so a link leaves the other pairs of cell a as
                # they were
                for b in compress(range(a + 1, m), map(ne, row[a + 1:], col[a + 1:])):
                    z = xs[b]
                    w = ys[b]
                    left = row[b]
                    right = col[b]
                    if right == -1:
                        changed |= self.set_cell(
                            w, x, left, "alterability",
                            (facts[x][y], facts[z][w], facts[y][z]), (x, y, z, w))
                    elif left == -1:
                        changed |= self.set_cell(
                            y, z, right, "alterability",
                            (facts[x][y], facts[z][w], facts[w][x]), (x, y, z, w))
                    else:
                        raise _ConflictError(Conflict(
                            "cell-mismatch", "alterability", (w, x), left, right,
                            (facts[x][y], facts[z][w], facts[y][z]), (x, y, z, w)))
        return changed


def _at_least(counts: list, n: int) -> list:
    """masks[k]: the bitmask of the i with counts[i] >= k, for k = 0..n+1;
    masks[-1] is masks[n+1], which is empty."""
    masks = [0] * (n + 2)
    for i, k in enumerate(counts):
        masks[k] |= 1 << i
    for k in range(n, -1, -1):
        masks[k] |= masks[k + 1]
    return masks


class _View(NamedTuple):
    """One of the three conjugates of the partial latin square.  A view
    fixes a pair (i, j) and places the third coordinate k: xs[i] holds the
    k that a known cell of plane i rules out, ys[j] those that a known
    cell of plane j rules out, and placed[i] holds j when (i, j) is
    already placed.  rcv maps (i, j, k) to (row, column, value), and
    planes reads (xs, ys, placed) off a state.  A single is a step by rule
    single; a pair with no k is a conflict of kind by rule, whose cell and
    value are (i, j, k) with k = -1."""

    single: str
    kind: str
    rule: str
    rcv: itemgetter
    planes: attrgetter


# in the order latin_pass runs them
_VIEWS = (
    _View("latin-cell-single", "cell-no-candidate", "latin-cell", itemgetter(0, 1, 2),
          attrgetter("row_vals", "col_vals", "row_known")),
    _View("latin-row-single", "row-value-impossible", "latin-row", itemgetter(0, 2, 1),
          attrgetter("row_known", "value_cols", "row_vals")),
    _View("latin-col-single", "col-value-impossible", "latin-col", itemgetter(2, 0, 1),
          attrgetter("col_known", "value_rows", "col_vals")),
)


def _saturate(st: _State) -> None:
    if st.conflict is not None:
        return
    try:
        while True:
            ch = st.latin_pass()
            ch = st.alter_pass() or ch
            if not ch:
                return
    except _ConflictError as exc:
        st.conflict = exc.record


# The largest block count the engine takes, 256: a table of order 4*256+1 =
# cayley.MAX_ORDER.  A larger count raises SearchCapExceeded before any
# table is allocated (the command line exits 3), instead of filling memory.
MAX_BLOCKS = (MAX_ORDER - 1) // 4

# How deep refute_case splits cases before the split budget is exhausted.
SPLIT_DEPTH = 3


def _seed_state(blocks: int, choice: int) -> _State:
    if blocks > MAX_BLOCKS:
        raise SearchCapExceeded(
            f"{blocks} blocks exceed the cap of {MAX_BLOCKS} blocks "
            f"(order {4 * MAX_BLOCKS + 1})")
    st = _State(blocks, choice)
    try:
        for step in seed_steps(blocks, choice):
            r, c = step.cell
            if st.set_cell(r, c, step.value, step.rule, (), ()):
                # the shared seed step itself, by which replay_trace
                # recognises a trace's seed prefix
                st.trace[-1] = step
    except _ConflictError as exc:
        st.conflict = exc.record
    st.seeded = len(st.trace)
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
        table = CayleyTable(st.n, st.val, canonical_labels(st.blocks))
        if not is_quadratical(table):
            raise AssertionError("completed table failed the quadratical check")
        return Completed(table, tuple(st.trace), st.blocks, st.choice)
    return Stuck(_partial_view(st), st.blocks, st.choice)


@_collector_paused
def complete_qn(blocks: int, choice: int):
    """Deduce the full table of a block-form quadratical quasigroup from
    the centre*a choice (a slot 1..4 naming the element of the last block).
    Pure saturation, no search: the outcome is Completed, Contradiction, or
    an honest Stuck.  Pauses the process's cyclic garbage collector while
    it runs (see _collector_paused)."""
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

class RefutationCase(NamedTuple):
    choice: int
    refuted: bool
    leaves: tuple[Contradiction, ...]
    splits: int
    max_depth_used: int
    completed: Completed | None
    stuck: Stuck | None


class RefutationReport(NamedTuple):
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


def _conflict_cone(st: _State) -> tuple[Step, ...]:
    """The trace a refutation leaf keeps: the seed steps, whole, so that
    replay_trace still starts from its verified seed table, then in trace
    order the other steps the conflict rests on.  The cone starts at the
    cells the conflict cites, plus for a cell-mismatch the clashing cell,
    which the conflict check reads without citing; each step in it adds
    the steps that assigned its premises.  The auditor verifies each kept
    step forward with the same checks: they need only the cited cells
    known, and the cells a kept step leaves unknown were unknown at that
    step in the whole trace too."""
    trace = st.trace
    step_at = st.step_at
    seeded = st.seeded
    cells = [cell for cell, _ in st.conflict.premises]
    if st.conflict.kind == "cell-mismatch":
        cells.append(st.conflict.cell)
    keep = set()
    while cells:
        r, c = cells.pop()
        i = step_at[r][c]
        if i >= seeded and i not in keep:
            keep.add(i)
            cells.extend(cell for cell, _ in trace[i].premises)
    return (*trace[:seeded], *map(trace.__getitem__, sorted(keep)))


def _refute_search(st: _State, depth: int, stats: dict):
    """DFS over assumptions on the least-unknown cell.  Returns the list of
    Contradiction leaves, each with its trace trimmed to the cone of its
    conflict, or the first Completed or Stuck outcome, untrimmed."""
    if st.conflict is not None:
        return [Contradiction(st.conflict, _conflict_cone(st), st.blocks, st.choice)]
    if st.unknown == 0 or depth >= SPLIT_DEPTH:
        return _outcome(st)
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
        found = _refute_search(child, depth + 1, stats)
        if not isinstance(found, list):
            return found
        leaves.extend(found)
    return leaves


@_collector_paused
def refute_case(blocks: int, choice: int) -> RefutationCase:
    """Saturate one centre*a choice and, if needed, case-split up to
    SPLIT_DEPTH; every branch must end in a conflict for a refutation.
    Pauses the process's cyclic garbage collector while it runs (see
    _collector_paused)."""
    st = _seed_state(blocks, choice)
    _saturate(st)
    stats = {"splits": 0, "max_depth": 0}
    found = _refute_search(st, 0, stats)
    if isinstance(found, list):
        return RefutationCase(
            choice, True, tuple(found), stats["splits"], stats["max_depth"], None, None)
    return RefutationCase(
        choice, False, (), stats["splits"], stats["max_depth"],
        found if isinstance(found, Completed) else None,
        found if isinstance(found, Stuck) else None)


def refute_q6() -> RefutationReport:
    """Run all four centre*a choices for a six-block table; a full report
    with four refuted cases is a machine check that no such quasigroup
    exists."""
    return RefutationReport(6, tuple(refute_case(6, c) for c in (1, 2, 3, 4)))


# ---------------------------------------------------------------------------
# trace text, and the auditor on first use
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


def __getattr__(name):
    # PEP 562: deduction.replay_trace is quadlat.audit.replay_trace, imported
    # only when first read
    if name == "replay_trace":
        from .audit import replay_trace

        return replay_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Forward-chaining completion of block-form Cayley tables.

A partial table over the symbols {centre} + H1..Hn is seeded from the
block laws plus one choice for centre*a, then saturated under one rule,
alterability, repeated until it assigns no cell.  One scan of the unknown
cells then runs latin elimination and picks the cell refute_case splits
on.  Each pass scans in a fixed order, so traces are deterministic.  Known
cells never change: a clashing deduction is a conflict, not an overwrite.

Alterability does all the deducing: over 5-12 blocks x 4 choices in
refute_case it assigns 72,454 cells.  The latin scan assigns none: at every
conflict-free fixpoint of alterability, over 1-30 blocks in complete_qn and
in every branch of refute_case, no unknown cell had a single candidate.
It stays for its conflict.  A cell whose row and column hold every value
ends a branch; without the check refute_case(5, 2) and (5, 4) split on
such a cell, try no value, and report a refutation with no leaf, and
complete_qn(5, 2) and (5, 4) end Stuck.  Otherwise the scan returns the
first cell with the fewest candidates, the split cell.

The row and column latin views (a value with one open place, or none, in
a row or a column), bookend, strong elasticity, left and right
distributivity and mediality also hold in a quadratical quasigroup but are
not scheduled: at every conflict-free fixpoint over 1-30 blocks they
assigned no cell and raised no conflict.  The rules are monotone, so
adding them would reach the same fixpoints.  The auditor, replay_trace,
lives in quadlat.audit and is read from here on first use, so a process
that only deduces never loads it.  It accepts only the rules the engine
emits, so it refuses a step by any of those others, or a latin cell
single, as an unknown rule.

refute_case keeps each Contradiction leaf's trace trimmed to the cone of
its conflict (_conflict_cone): only the steps the conflict rests on,
followed back through their premises to the seeds and assumptions, the
backward check of DRAT-trim (Wetzler, Heule and Hunt, SAT 2014).  At 12
blocks that keeps 7,968 of the leaves' 94,147 steps.  complete_qn's
outcomes, and a Completed or Stuck search outcome, keep every step.

A trace states each value once, in the step that assigns its cell: a
premise, like a clause an LRAT step cites (Cruz-Filipe et al., CADE 2017),
is the cell (r, c) it reads, and a cell-mismatch conflict's clashing value
is left to the step that assigned its cell.  One (r, c) tuple per cell,
made when a branch of the case first assigns the cell and shared by every
clone, is the object each step, premise and conflict naming the cell
references.  trace_text reads each cited value back from the trace, and
the auditor from the table it rebuilds.

Skip invariant.  Alterability links two cells, idle when both hold the
same value, unknown included.  Its pass drops every such instance, and
runs the per-instance code on the rest in the original order, so traces,
conflicts, splits and leaves are those of a pass that visits every
instance: it compares, per first cell, a row of the table against a
column of its transposed view over all the value's cells at once.  The
latin scan visits every unknown cell.

Passes keep no memory between passes and read only the current table:
remembering which instances were idle, to skip them until an input
changed, left every trace the same but made refute_case slower (5-12
blocks x 4 choices: 0.89 s with it, 0.77 s without, medians on 2 CPUs
under Python 3.11), since that bookkeeping in Python cost more than the
tuple comparisons it skipped.
"""

from itertools import compress
from operator import itemgetter, ne
from typing import NamedTuple

from .cayley import CayleyTable, is_quadratical
from .qn import canonical_labels, seed_assignments
from .steps import Conflict, Step, _collector_paused


class PartialTable(NamedTuple):
    entries: tuple[tuple, ...]  # int or None per cell
    trace: tuple[Step, ...]

    def known_count(self) -> int:
        return sum(1 for row in self.entries for v in row if v is not None)


# The outcomes of one (blocks, choice) search.  They do not restate the
# block count and choice the caller passed in; a RefutationCase keeps the
# choice and a RefutationReport the block count.
class Completed(NamedTuple):
    table: CayleyTable
    trace: tuple[Step, ...]


class Contradiction(NamedTuple):
    conflict: Conflict
    trace: tuple[Step, ...]


class Stuck(NamedTuple):
    partial: PartialTable


class _ConflictError(Exception):
    def __init__(self, record):
        self.record = record


# ---------------------------------------------------------------------------
# engine state
# ---------------------------------------------------------------------------

class _State:
    # cells[r][c] is the one (r, c) tuple of a cell, made the first time
    # set_cell assigns it in any branch of the case and None before; clones
    # share the table, since a cell's name does not depend on its value.
    # The cell of its Step and every premise or conflict record that names
    # the cell reference it, so a trace holds one premise object per cell,
    # not one per mention.  step_at[r][c] is the index in trace of the step
    # that assigned the known cell: _conflict_cone follows a conflict's
    # premises back by it.
    __slots__ = (
        "n", "val", "cols", "cells", "step_at", "row_vals",
        "col_vals", "rows_by_value", "cols_by_value", "trace", "conflict",
    )

    def __init__(self, n: int):
        self.n = n
        self.val = [[-1] * n for _ in range(n)]
        # the same table by columns: cols[c][r] = val[r][c]
        self.cols = [[-1] * n for _ in range(n)]
        self.cells = [[None] * n for _ in range(n)]
        self.step_at = [[-1] * n for _ in range(n)]
        # bitmasks of the values each row and each column holds
        self.row_vals = [0] * n
        self.col_vals = [0] * n
        # the cells of each value in assignment order, as a list of rows and
        # a parallel list of columns
        self.rows_by_value = [[] for _ in range(n)]
        self.cols_by_value = [[] for _ in range(n)]
        self.trace = []
        self.conflict = None

    def clone(self) -> "_State":
        st = _State.__new__(_State)
        st.n = self.n
        st.val = [row[:] for row in self.val]
        st.cols = [col[:] for col in self.cols]
        st.cells = self.cells
        st.step_at = [row[:] for row in self.step_at]
        st.row_vals = self.row_vals[:]
        st.col_vals = self.col_vals[:]
        st.rows_by_value = [lst[:] for lst in self.rows_by_value]
        st.cols_by_value = [lst[:] for lst in self.cols_by_value]
        st.trace = self.trace[:]
        st.conflict = None
        return st

    # -- assignment ---------------------------------------------------------

    def set_cell(self, r, c, v, rule, premises) -> bool:
        row = self.val[r]
        cur = row[c]
        if cur == v:
            return False
        cells = self.cells
        if cur != -1:
            raise _ConflictError(Conflict(
                "cell-mismatch", rule, cells[r][c], v, premises))
        bit = 1 << v
        if self.row_vals[r] & bit:
            raise _ConflictError(Conflict(
                "row-duplicate", rule, (r, c), v,
                premises + (cells[r][row.index(v)],)))
        if self.col_vals[c] & bit:
            raise _ConflictError(Conflict(
                "col-duplicate", rule, (r, c), v,
                premises + (cells[self.cols[c].index(v)][c],)))
        cell = cells[r][c] = cells[r][c] or (r, c)
        self.step_at[r][c] = len(self.trace)
        row[c] = v
        self.cols[c][r] = v
        self.row_vals[r] |= bit
        self.col_vals[c] |= bit
        self.rows_by_value[v].append(r)
        self.cols_by_value[v].append(c)
        self.trace.append(Step(rule, cell, v, premises))
        return True

    # -- rule passes --------------------------------------------------------

    def latin_scan(self):
        """Latin elimination over the unknown cells, in row-major order,
        which also picks the split cell.  The first cell whose row and
        column hold every value is a cell-no-candidate conflict; otherwise
        the result is (r, c, candidates) for the first cell with the fewest
        candidates, or None when no cell is unknown."""
        full = (1 << self.n) - 1
        col_vals = self.col_vals
        best = None
        least = self.n + 1
        for r, row in enumerate(self.val):
            in_row = self.row_vals[r]
            for c in [c for c, v in enumerate(row) if v == -1]:
                cand = ~(in_row | col_vals[c]) & full
                if not cand:
                    raise _ConflictError(Conflict(
                        "cell-no-candidate", "latin-cell", (r, c), -1,
                        self._coverage(r, c)))
                count = cand.bit_count()
                if count < least:
                    best = (r, c, cand)
                    least = count
        return best

    def _coverage(self, r, c) -> tuple:
        """The known cells that rule out values at cell (r, c), by value in
        increasing order: the cell of row r that holds it, and otherwise
        the one of column c."""
        row = self.val[r]
        col = self.cols[c]
        cells = self.cells
        in_row = self.row_vals[r]
        out = []
        ruled_out = in_row | self.col_vals[c]
        while ruled_out:
            bit = ruled_out & -ruled_out
            ruled_out ^= bit
            v = bit.bit_length() - 1
            out.append(cells[r][row.index(v)] if in_row & bit else cells[col.index(v)][c])
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
        cells = self.cells
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
                            (cells[x][y], cells[z][w], cells[y][z]))
                    elif left == -1:
                        changed |= self.set_cell(
                            y, z, right, "alterability",
                            (cells[x][y], cells[z][w], cells[w][x]))
                    else:
                        raise _ConflictError(Conflict(
                            "cell-mismatch", "alterability", cells[w][x], left,
                            (cells[x][y], cells[z][w], cells[y][z])))
        return changed


def _saturate(st: _State):
    """Run alterability to its fixpoint, then the latin scan.  Returns the
    scan's split cell, or None when a conflict ends the state (st.conflict)
    or no cell is unknown."""
    if st.conflict is not None:
        return None
    try:
        while st.alter_pass():
            pass
        return st.latin_scan()
    except _ConflictError as exc:
        st.conflict = exc.record
        return None


# How deep refute_case splits cases before the split budget is exhausted.
SPLIT_DEPTH = 3


def _seed_state(blocks: int, choice: int) -> _State:
    seeds = seed_assignments(blocks, choice)  # checks the case before any table is allocated
    st = _State(4 * blocks + 1)
    try:
        for rule, (r, c), v in seeds:
            st.set_cell(r, c, v, rule, ())
    except _ConflictError as exc:
        st.conflict = exc.record
    return st


def _outcome(st: _State, split):
    """The outcome of st, given split, the cell _saturate picked for it:
    None, unless st holds a conflict, means no cell is unknown."""
    if st.conflict is not None:
        return Contradiction(st.conflict, tuple(st.trace))
    if split is None:
        table = CayleyTable(st.n, st.val, canonical_labels((st.n - 1) // 4))
        if not is_quadratical(table):
            raise AssertionError("completed table failed the quadratical check")
        return Completed(table, tuple(st.trace))
    entries = tuple(tuple(v if v != -1 else None for v in row) for row in st.val)
    return Stuck(PartialTable(entries, tuple(st.trace)))


@_collector_paused
def complete_qn(blocks: int, choice: int):
    """Deduce the full table of a block-form quadratical quasigroup from
    the centre*a choice (a slot 1..4 naming the element of the last block).
    Pure saturation, no search: the outcome is Completed, Contradiction, or
    an honest Stuck.  Pauses the process's cyclic garbage collector while
    it runs (see _collector_paused)."""
    st = _seed_state(blocks, choice)
    return _outcome(st, _saturate(st))


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
    leaves: tuple[Contradiction, ...]
    splits: int
    max_depth_used: int
    completed: Completed | None
    stuck: Stuck | None

    @property
    def refuted(self) -> bool:
        """Every branch ended in a conflict: the search met no completion
        and did not exhaust its split budget."""
        return self.completed is None and self.stuck is None


class RefutationReport(NamedTuple):
    blocks: int
    cases: tuple[RefutationCase, ...]

    @property
    def ok(self) -> bool:
        return all(c.refuted for c in self.cases)


def _conflict_cone(st: _State) -> tuple[Step, ...]:
    """The trace a refutation leaf keeps: in trace order, the steps the
    conflict rests on.  The cone starts at the cells the conflict cites,
    plus for a cell-mismatch the clashing cell, which the conflict check
    reads without citing; each step in it adds the steps that assigned its
    premises, down to seeds and assumptions, which have none.  The auditor
    verifies each kept step forward from an empty table with the same
    checks: they need only the cited cells known, and the cells a kept
    step leaves unknown were unknown at that step in the whole trace too."""
    trace = st.trace
    step_at = st.step_at
    cells = list(st.conflict.premises)
    if st.conflict.kind == "cell-mismatch":
        cells.append(st.conflict.cell)
    keep = set()
    while cells:
        r, c = cells.pop()
        i = step_at[r][c]
        if i not in keep:
            keep.add(i)
            cells.extend(trace[i].premises)
    return tuple(map(trace.__getitem__, sorted(keep)))


def _refute_search(st: _State, split, depth: int, stats: dict):
    """DFS over assumptions on split, the cell _saturate picked for st.
    Returns the list of Contradiction leaves, each with its trace trimmed
    to the cone of its conflict, or the first Completed or Stuck outcome,
    untrimmed."""
    if st.conflict is not None:
        return [Contradiction(st.conflict, _conflict_cone(st))]
    if split is None or depth >= SPLIT_DEPTH:
        return _outcome(st, split)
    stats["splits"] += 1
    stats["max_depth"] = max(stats["max_depth"], depth + 1)
    r, c, cand = split
    leaves = []
    while cand:
        bit = cand & -cand
        cand ^= bit
        # candidates are latin-safe, so the assumption itself never clashes
        child = st.clone()
        child.set_cell(r, c, bit.bit_length() - 1, "assume", ())
        found = _refute_search(child, _saturate(child), depth + 1, stats)
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
    stats = {"splits": 0, "max_depth": 0}
    found = _refute_search(st, _saturate(st), 0, stats)
    return RefutationCase(
        choice, tuple(found) if isinstance(found, list) else (),
        stats["splits"], stats["max_depth"],
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

def _cited(known: dict, premises) -> str:
    return ", ".join(f"cell({r},{c})={known[r, c]}" for r, c in premises)


def trace_text(trace, conflict: Conflict | None = None) -> str:
    """One deduction per line: ``cell(x,y) := v  by RULE from [premises]``.
    Each cited cell is printed with the value the earlier step of the trace
    that assigned it states, and so is a cell-mismatch conflict's clashing
    cell; a cited cell that no earlier step assigns raises ValueError."""
    known = {}
    lines = []
    try:
        for step in trace:
            lines.append(
                f"cell({step.cell[0]},{step.cell[1]}) := {step.value}"
                f"  by {step.rule} from [{_cited(known, step.premises)}]"
            )
            known[step.cell] = step.value
        if conflict is not None:
            (r, c), v = conflict.cell, conflict.value
            if conflict.kind == "cell-mismatch":
                what = f"cell({r},{c}) := {v} clashes with existing {known[r, c]}"
            elif conflict.kind in ("row-duplicate", "col-duplicate"):
                what = f"cell({r},{c}) := {v} duplicates a {conflict.kind.split('-')[0]} value"
            else:
                what = f"{conflict.kind} at ({r},{c}) value {v}"
            lines.append(
                f"conflict: {what}  by {conflict.rule} from [{_cited(known, conflict.premises)}]")
    except KeyError as missing:
        raise ValueError(f"cell {missing} is cited but no earlier step assigns it") from None
    return "\n".join(lines) + "\n"


def __getattr__(name):
    # PEP 562: deduction.replay_trace is quadlat.audit.replay_trace, imported
    # only when first read
    if name == "replay_trace":
        from .audit import replay_trace

        return replay_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

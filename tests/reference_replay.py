"""The trace replay as it was before it kept the table by rows and by
columns, a test oracle for quadlat.audit._Replay.

It scans rows and columns in Python and checks each latin case with its own
loop.  Like the new replay, it requires each step and conflict to cite
every known cell its check reads, one cell per value or position a latin
rule rules out, and a cell-mismatch to state the value the cell holds.
It also compares an alterability step's first three premises by position with the two equal products and then the copied
cell, the order the engine prints them in, so it refuses the same
premises reordered; any further premise, such as a row-duplicate
conflict's witness, is only checked to hold.  A step's or conflict's cell
and value must be ints: a bool indexes the table like 0 or 1 and equals
it in the seed set, yet the engine never prints one.  Like the new
replay, it knows only the rules the engine runs, so a bookend or
strong-elasticity step is refused as an unknown rule.
On well-formed input the new replay must accept and reject exactly what
this one does; on malformed input, where this one may raise IndexError
or ValueError or wrap a negative index, the new one raises ReplayError.
"""

from quadlat.qn import seed_assignments
from quadlat.steps import Conflict, ReplayError, Step


class Replay:
    """Re-derives each trace step from the rule schema against the running
    partial table, each premise from the known cells; raises ReplayError on
    the first unjustified step."""

    def __init__(self, blocks: int, choice: int):
        self.n = 4 * blocks + 1
        self.val = [[-1] * self.n for _ in range(self.n)]
        self.seeds = {
            (cell, v): rule for rule, cell, v in seed_assignments(blocks, choice)
        }

    def get(self, r, c):
        if not (0 <= r < self.n and 0 <= c < self.n):
            raise ReplayError(f"cell ({r},{c}) out of range")
        return self.val[r][c]

    def known(self, r, c):
        v = self.get(r, c)
        if v == -1:
            raise ReplayError(f"premise cell ({r},{c}) not yet known")
        return v

    @staticmethod
    def require_ints(*coords):
        if not all(type(x) is int for x in coords):
            raise ReplayError(f"cell or value not an int: {coords}")

    def check_premises(self, premises):
        for (r, c), v in premises:
            if self.known(r, c) != v:
                raise ReplayError(f"premise cell({r},{c})={v} does not hold")

    def alterability(self, step):
        """Require the two products to be equal and the step's cell to be
        one of the two cells alterability then forces equal, with the
        premises printed as the products and then the other cell."""
        x, y, z, w = step.binding
        xy = self.known(x, y)
        if xy != self.known(z, w):
            raise ReplayError("alterability premises are not equal products")
        for mine, other in (((y, z), (w, x)), ((w, x), (y, z))):
            if step.cell == mine and step.premises[:3] == (
                    ((x, y), xy), ((z, w), xy), (other, step.value)):
                return
        raise ReplayError(f"alterability step not justified: {step}")

    def verify_step(self, step: Step):
        rule = step.rule
        r, c = step.cell
        v = step.value
        self.require_ints(r, c, v)
        self.check_premises(step.premises)
        if rule.startswith("seed:"):
            if self.seeds.get((step.cell, v)) != rule:
                raise ReplayError(f"{rule} step not in the seed set: {step}")
            return
        if rule == "assume":
            if self.get(r, c) != -1:
                raise ReplayError("assumption over a known cell")
            return
        if rule == "alterability":
            self.alterability(step)
            return
        if rule == "latin-cell-single":
            if self.get(r, c) != -1:
                raise ReplayError("latin-cell-single over a known cell")
            for w in range(self.n):
                if w == v:
                    continue
                if not (self._value_in_row(r, w) or self._value_in_col(c, w)):
                    raise ReplayError(f"value {w} not excluded at ({r},{c})")
                if not self._cites_value(step.premises, r, c, w):
                    raise ReplayError(f"no premise excludes value {w} at ({r},{c})")
            return
        if rule == "latin-row-single":
            if self._value_in_row(r, v):
                raise ReplayError("latin-row-single for a present value")
            for cc in range(self.n):
                if cc == c:
                    continue
                if self.get(r, cc) == -1 and not self._value_in_col(cc, v):
                    raise ReplayError(f"column {cc} not excluded for value {v}")
                if not self._cites_row_position(step.premises, r, cc, v):
                    raise ReplayError(f"no premise excludes column {cc} for value {v}")
            return
        if rule == "latin-col-single":
            if self._value_in_col(c, v):
                raise ReplayError("latin-col-single for a present value")
            for rr in range(self.n):
                if rr == r:
                    continue
                if self.get(rr, c) == -1 and not self._value_in_row(rr, v):
                    raise ReplayError(f"row {rr} not excluded for value {v}")
                if not self._cites_col_position(step.premises, rr, c, v):
                    raise ReplayError(f"no premise excludes row {rr} for value {v}")
            return
        raise ReplayError(f"unknown rule {rule!r}")

    @staticmethod
    def _cites_value(premises, r, c, w):
        """A premise places value w in row r or in column c."""
        return any(u == w and (pr == r or pc == c) for (pr, pc), u in premises)

    @staticmethod
    def _cites_row_position(premises, r, c, v):
        """A premise rules out value v at position c of row r: it names
        cell (r, c), or a cell of v in column c."""
        return any((pr, pc) == (r, c) or (pc == c and u == v) for (pr, pc), u in premises)

    @staticmethod
    def _cites_col_position(premises, r, c, v):
        """A premise rules out value v at position r of column c: it names
        cell (r, c), or a cell of v in row r."""
        return any((pr, pc) == (r, c) or (pr == r and u == v) for (pr, pc), u in premises)

    def _value_in_row(self, r, v):
        return v in self.val[r]

    def _value_in_col(self, c, v):
        return any(self.val[r][c] == v for r in range(self.n))

    def apply_step(self, step: Step):
        r, c = step.cell
        if self.val[r][c] != -1:
            raise ReplayError(f"cell ({r},{c}) assigned twice")
        if self._value_in_row(r, step.value) or self._value_in_col(c, step.value):
            raise ReplayError(f"step duplicates value {step.value} at ({r},{c})")
        self.val[r][c] = step.value

    def verify_conflict(self, conflict: Conflict):
        kind = conflict.kind
        r, c = conflict.cell
        self.require_ints(r, c, conflict.value)
        self.check_premises(conflict.premises)
        if kind in ("cell-mismatch", "row-duplicate", "col-duplicate"):
            pseudo = Step(conflict.rule, conflict.cell, conflict.value,
                          conflict.premises, conflict.binding)
            if conflict.rule.startswith("seed:"):
                if self.seeds.get((conflict.cell, conflict.value)) != conflict.rule:
                    raise ReplayError("conflicting seed not in the seed set")
            else:
                self.verify_step(pseudo)
            premises, v = conflict.premises, conflict.value
            if kind == "cell-mismatch":
                if self.get(r, c) == -1 or self.get(r, c) == v:
                    raise ReplayError("cell-mismatch conflict does not clash")
                if self.get(r, c) != conflict.existing:
                    raise ReplayError("cell-mismatch conflict misstates the cell")
            elif kind == "row-duplicate":
                if self.get(r, c) != -1 or not self._value_in_row(r, v):
                    raise ReplayError("row-duplicate conflict does not clash")
                if not any(pr == r and u == v for (pr, _), u in premises):
                    raise ReplayError("row-duplicate conflict cites no cell of its value")
            else:
                if self.get(r, c) != -1 or not self._value_in_col(c, v):
                    raise ReplayError("col-duplicate conflict does not clash")
                if not any(pc == c and u == v for (_, pc), u in premises):
                    raise ReplayError("col-duplicate conflict cites no cell of its value")
            return
        if kind == "cell-no-candidate":
            for w in range(self.n):
                if not (self._value_in_row(r, w) or self._value_in_col(c, w)):
                    raise ReplayError(f"value {w} still possible at ({r},{c})")
                if not self._cites_value(conflict.premises, r, c, w):
                    raise ReplayError(f"no premise excludes value {w} at ({r},{c})")
            return
        if kind == "row-value-impossible":
            v = conflict.value
            if self._value_in_row(r, v):
                raise ReplayError("value already present in row")
            for cc in range(self.n):
                if self.get(r, cc) == -1 and not self._value_in_col(cc, v):
                    raise ReplayError(f"column {cc} still open for value {v}")
                if not self._cites_row_position(conflict.premises, r, cc, v):
                    raise ReplayError(f"no premise excludes column {cc} for value {v}")
            return
        if kind == "col-value-impossible":
            v = conflict.value
            if self._value_in_col(c, v):
                raise ReplayError("value already present in column")
            for rr in range(self.n):
                if self.get(rr, c) == -1 and not self._value_in_row(rr, v):
                    raise ReplayError(f"row {rr} still open for value {v}")
                if not self._cites_col_position(conflict.premises, rr, c, v):
                    raise ReplayError(f"no premise excludes row {rr} for value {v}")
            return
        raise ReplayError(f"unknown conflict kind {kind!r}")

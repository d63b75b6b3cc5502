"""The trace replay as it was before it kept the table by rows and by
columns, a test oracle for quadlat.audit._Replay.

It scans rows and columns in Python and checks the latin conflict with its
own loop.  Like the new replay, it requires each step and conflict to cite
every known cell its check reads and one cell per value a
cell-no-candidate conflict rules out, each premise a pair of ints (r, c)
naming a known cell, whose value it reads from its own table.
It reads an alterability step's two equal products from the cells of its
first two premises and compares its first three premises by position
with the two products and then the copied cell, the order the engine
prints them in, so it refuses the same premises in any other order but
the two products swapped, which is the instance z*w = x*y; any further
premise, such as a row-duplicate conflict's witness, is only checked to
be known.  A step's, conflict's or premise's cell and a value must be
ints: a bool indexes the table like 0 or 1 and equals it in the seed
set, yet the engine never prints one.  Like the new replay, it knows
only the rules and conflict kinds the engine makes, so a bookend or
strong-elasticity step, a latin single over a cell, a row or a column
(latin-cell-single, latin-row-single, latin-col-single) and a
row-value-impossible or col-value-impossible conflict are refused as
unknown.  A cell-no-candidate conflict at a cell already placed is
refused, as the new replay refuses it.
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
        for r, c in premises:
            self.require_ints(r, c)
            self.known(r, c)

    def alterability(self, step):
        """Require the two products, the cells of the first two premises,
        to be equal and the step's cell to be one of the two cells
        alterability then forces equal, with the premises printed as the
        products and then the other cell."""
        if len(step.premises) < 3:
            raise ReplayError("alterability cites fewer than three premises")
        x, y = step.premises[0]
        z, w = step.premises[1]
        if self.known(x, y) != self.known(z, w):
            raise ReplayError("alterability premises are not equal products")
        for mine, other in (((y, z), (w, x)), ((w, x), (y, z))):
            if (step.cell == mine and step.premises[:3] == ((x, y), (z, w), other)
                    and self.known(*other) == step.value):
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
        raise ReplayError(f"unknown rule {rule!r}")

    def _cites_value(self, premises, r, c, w):
        """A premise places value w in row r or in column c."""
        return any(self.val[pr][pc] == w and (pr == r or pc == c) for pr, pc in premises)

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
            pseudo = Step(conflict.rule, conflict.cell, conflict.value, conflict.premises)
            if conflict.rule.startswith("seed:"):
                if self.seeds.get((conflict.cell, conflict.value)) != conflict.rule:
                    raise ReplayError("conflicting seed not in the seed set")
            else:
                self.verify_step(pseudo)
            premises, v = conflict.premises, conflict.value
            if kind == "cell-mismatch":
                if self.get(r, c) == -1 or self.get(r, c) == v:
                    raise ReplayError("cell-mismatch conflict does not clash")
            elif kind == "row-duplicate":
                if self.get(r, c) != -1 or not self._value_in_row(r, v):
                    raise ReplayError("row-duplicate conflict does not clash")
                if not any(pr == r and self.val[pr][pc] == v for pr, pc in premises):
                    raise ReplayError("row-duplicate conflict cites no cell of its value")
            else:
                if self.get(r, c) != -1 or not self._value_in_col(c, v):
                    raise ReplayError("col-duplicate conflict does not clash")
                if not any(pc == c and self.val[pr][pc] == v for pr, pc in premises):
                    raise ReplayError("col-duplicate conflict cites no cell of its value")
            return
        if kind == "cell-no-candidate":
            if self.get(r, c) != -1:
                raise ReplayError(f"cell-no-candidate at ({r},{c}), already placed")
            for w in range(self.n):
                if not (self._value_in_row(r, w) or self._value_in_col(c, w)):
                    raise ReplayError(f"value {w} still possible at ({r},{c})")
                if not self._cites_value(conflict.premises, r, c, w):
                    raise ReplayError(f"no premise excludes value {w} at ({r},{c})")
            return
        raise ReplayError(f"unknown conflict kind {kind!r}")

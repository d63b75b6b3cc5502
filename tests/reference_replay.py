"""The trace replay as it was before it kept the table by rows and by
columns, a test oracle for quadlat.deduction._Replay.

It scans rows and columns in Python and checks each latin case with its own
loop.  On well-formed input the new replay must accept and reject exactly
what this one does; on malformed input, where this one may raise IndexError
or ValueError or wrap a negative index, the new one raises ReplayError.
"""

from quadlat.deduction import Conflict, ReplayError, Step, seed_assignments


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

    def check_premises(self, premises):
        for (r, c), v in premises:
            if self.known(r, c) != v:
                raise ReplayError(f"premise cell({r},{c})={v} does not hold")

    def derivation_sides(self, step):
        """The two cells forced equal by this step's rule, or None for
        rules handled specially."""
        rule, binding = step.rule, step.binding
        if rule == "strong-elasticity":
            x, y = binding
            u = self.get(y, x)
            v = self.get(x, y)
            cells = []
            if u != -1:
                cells += [(x, u), (u, y)]
            if v != -1:
                cells.append((v, x))
            if step.cell not in cells:
                raise ReplayError("strong-elasticity conclusion not addressable")
            others = [cl for cl in cells if cl != step.cell and self.get(*cl) == step.value]
            if not others:
                raise ReplayError("strong-elasticity source value missing")
            return None
        if rule == "left-distributivity":
            x, y, z = binding
            a = self.known(y, z)
            b = self.known(x, y)
            c = self.known(x, z)
            return (x, a), (b, c)
        if rule == "right-distributivity":
            x, y, z = binding
            a = self.known(x, y)
            b = self.known(x, z)
            c = self.known(y, z)
            return (a, z), (b, c)
        if rule == "mediality":
            x, y, z, w = binding
            a = self.known(x, y)
            b = self.known(z, w)
            c = self.known(x, z)
            d = self.known(y, w)
            return (a, b), (c, d)
        if rule == "alterability":
            x, y, z, w = binding
            if self.known(x, y) != self.known(z, w):
                raise ReplayError("alterability premises are not equal products")
            return (y, z), (w, x)
        raise ReplayError(f"unknown rule {rule!r}")

    def verify_step(self, step: Step):
        rule = step.rule
        r, c = step.cell
        v = step.value
        self.check_premises(step.premises)
        if rule.startswith("seed:"):
            if self.seeds.get((step.cell, v)) != rule:
                raise ReplayError(f"{rule} step not in the seed set: {step}")
            return
        if rule == "assume":
            if self.get(r, c) != -1:
                raise ReplayError("assumption over a known cell")
            return
        if rule == "bookend":
            x, y = step.binding
            u = self.known(y, x)
            vv = self.known(x, y)
            if (r, c) != (u, vv) or v != x:
                raise ReplayError(f"bookend step not justified: {step}")
            return
        if rule == "strong-elasticity":
            self.derivation_sides(step)
            return
        if rule in ("left-distributivity", "right-distributivity",
                    "mediality", "alterability"):
            s1, s2 = self.derivation_sides(step)
            for mine, other in ((s1, s2), (s2, s1)):
                if step.cell == mine and self.get(*other) == v:
                    return
            raise ReplayError(f"{rule} step not justified: {step}")
        if rule == "latin-cell-single":
            if self.get(r, c) != -1:
                raise ReplayError("latin-cell-single over a known cell")
            for w in range(self.n):
                if w == v:
                    continue
                if not (self._value_in_row(r, w) or self._value_in_col(c, w)):
                    raise ReplayError(f"value {w} not excluded at ({r},{c})")
            return
        if rule == "latin-row-single":
            if self._value_in_row(r, v):
                raise ReplayError("latin-row-single for a present value")
            for cc in range(self.n):
                if cc == c:
                    continue
                if self.get(r, cc) == -1 and not self._value_in_col(cc, v):
                    raise ReplayError(f"column {cc} not excluded for value {v}")
            return
        if rule == "latin-col-single":
            if self._value_in_col(c, v):
                raise ReplayError("latin-col-single for a present value")
            for rr in range(self.n):
                if rr == r:
                    continue
                if self.get(rr, c) == -1 and not self._value_in_row(rr, v):
                    raise ReplayError(f"row {rr} not excluded for value {v}")
            return
        raise ReplayError(f"unknown rule {rule!r}")

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
        self.check_premises(conflict.premises)
        if kind in ("cell-mismatch", "row-duplicate", "col-duplicate"):
            pseudo = Step(conflict.rule, conflict.cell, conflict.value,
                          conflict.premises, conflict.binding)
            if conflict.rule.startswith("seed:"):
                if self.seeds.get((conflict.cell, conflict.value)) != conflict.rule:
                    raise ReplayError("conflicting seed not in the seed set")
            else:
                self.verify_step(pseudo)
            if kind == "cell-mismatch":
                if self.get(r, c) == -1 or self.get(r, c) == conflict.value:
                    raise ReplayError("cell-mismatch conflict does not clash")
            elif kind == "row-duplicate":
                if self.get(r, c) != -1 or not self._value_in_row(r, conflict.value):
                    raise ReplayError("row-duplicate conflict does not clash")
            else:
                if self.get(r, c) != -1 or not self._value_in_col(c, conflict.value):
                    raise ReplayError("col-duplicate conflict does not clash")
            return
        if kind == "cell-no-candidate":
            for w in range(self.n):
                if not (self._value_in_row(r, w) or self._value_in_col(c, w)):
                    raise ReplayError(f"value {w} still possible at ({r},{c})")
            return
        if kind == "row-value-impossible":
            v = conflict.value
            if self._value_in_row(r, v):
                raise ReplayError("value already present in row")
            for cc in range(self.n):
                if self.get(r, cc) == -1 and not self._value_in_col(cc, v):
                    raise ReplayError(f"column {cc} still open for value {v}")
            return
        if kind == "col-value-impossible":
            v = conflict.value
            if self._value_in_col(c, v):
                raise ReplayError("value already present in column")
            for rr in range(self.n):
                if self.get(rr, c) == -1 and not self._value_in_row(rr, v):
                    raise ReplayError(f"row {rr} still open for value {v}")
            return
        raise ReplayError(f"unknown conflict kind {kind!r}")

"""The operations of a workload as CLI commands, each with its output check.

An operation becomes its argument list and a check on its stdout.  run.py
runs the arguments as a fresh process; traced.py passes them to the same
entry point in its own process.  Both therefore run the code users run and
check it with the same oracles.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracles
from child import ROOT
from workloads import HAS_BLOCK_FORM, write_inputs

# No CLI command runs refute_case beyond six blocks, so these operations run
# this script, which calls the public functions.
REFUTE_BLOCKS = str(Path(__file__).resolve().parent / "refute_blocks.py")


class Operations:
    """Builds each Op's (args, check): args are the arguments of
    ``quadlat`` (or REFUTE_BLOCKS and its argument), and check(stdout)
    raises OracleError on a wrong output."""

    def __init__(self, work: Path, tables: dict, ops):
        self.work = work
        self.tables = tables
        self.files = write_inputs(work, tables)
        self.outputs = set()
        # The true verdict of every identity on each table that is not
        # quadratical, from the defining equations; computed before timing.
        self.identities = {op.args["table"]: oracles.least_counterexamples(
            tables[op.args["table"]]) for op in ops
            if op.kind == "check" and op.args["kind"] != "quadratical"}

    def path(self, name):
        """An output file; build() deletes it before the next operation."""
        self.outputs.add(self.work / name)
        return self.work / name

    def build(self, op):
        for p in self.outputs:
            p.unlink(missing_ok=True)
        args, check = getattr(self, "op_" + op.kind)(**op.args)
        return [str(a) for a in args], check

    # -- sweep ------------------------------------------------------------

    def op_scan(self, max_m, max_k, discrepancies=False):
        out, disc = self.path("scan.csv"), self.path("scan-disc.txt")
        args = ["scan", "--max-m", max_m, "--max-k", max_k, "-o", out]

        def check(_):
            oracles.check_scan_csv(out.read_text(), max_m, max_k)
            if discrepancies:
                oracles.check_discrepancies(disc.read_text(), oracles.SCAN_DISCREPANCIES)
        return args + (["--discrepancies", disc] if discrepancies else []), check

    def op_classify(self, max_m, discrepancies=False):
        out, disc = self.path("classify.csv"), self.path("classify-disc.txt")
        args = ["classify", "--max-m", max_m, "-o", out]

        def check(_):
            rows = oracles.parse_csv_rows(out.read_text(), "m,a,b,k")
            oracles.check_classify_rows(rows, max_m)
            if discrepancies:
                oracles.check_discrepancies(disc.read_text(), set())
                oracles.require(rows == oracles.reference_classify_rows(ROOT),
                                "classify differs from REFERENCE_CLASSIFY_ROWS")
        return args + (["--discrepancies", disc] if discrepancies else []), check

    def op_solve(self, m):
        return ["solve", "-m", m], lambda text: oracles.check_solve(
            m, [int(v) for v in text.split()])

    def op_checkpoint(self, max_m, max_k, fresh):
        ck, out = self.work / "scan.ck", self.path("checkpoint.csv")
        if fresh:
            for p in (ck, self.work / "scan.ck.rows"):
                p.unlink(missing_ok=True)

        def check(_):
            oracles.check_scan_csv(out.read_text(), max_m, max_k)
            oracles.require(ck.read_text() == f"last_m={max_m}\n", "checkpoint not at max_m")
        return ["scan", "--max-m", max_m, "--max-k", max_k, "--checkpoint", ck,
                "-o", out], check

    # -- tables -----------------------------------------------------------

    def op_check(self, table, kind):
        e = self.tables[table]
        want = self.identities.get(table, dict.fromkeys(oracles.IDENTITY_IDS))
        return ["check", "-i", self.files[table], "--all"], lambda text: \
            oracles.check_identities(e, oracles.parse_check(text), want)

    def op_detect(self, table):
        e = self.tables[table]
        return ["detect-form", "-i", self.files[table]], lambda text: \
            oracles.check_detect_form(e, text, HAS_BLOCK_FORM[len(e)])

    def op_iso(self, left, right, found):
        e1, e2 = self.tables[left], self.tables[right]

        def check(text):
            perm = oracles.parse_perm(text)
            if found:
                oracles.check_isomorphism(e1, e2, perm)
            else:
                oracles.require(perm is None, f"iso found {perm} between non-isomorphic tables")
        return ["iso", self.files[left], self.files[right]], check

    def op_order(self, table):
        e = self.tables[table]
        return ["order-search", "-i", self.files[table]], lambda text: \
            oracles.check_order_search(e, text)

    def op_product(self, left, right):
        out = self.path("product.txt")
        want = oracles.product_entries(self.tables[left], self.tables[right])
        return ["product", self.files[left], self.files[right], "-o", out], lambda _: \
            oracles.require(oracles.parse_table(out.read_text()) == want, "wrong product")

    def op_dual(self, table):
        out = self.path("dual.txt")
        want = oracles.transpose(self.tables[table])
        return ["dual", "-i", self.files[table], "-o", out], lambda _: \
            oracles.require(oracles.parse_table(out.read_text()) == want, "wrong dual")

    # -- blocks -----------------------------------------------------------

    def op_refute_q6(self):
        return ["refute-q6"], oracles.check_refute_q6

    def op_complete_qn(self, blocks, choice):
        trace = self.path("trace.txt")
        return ["complete-qn", "-n", blocks, "--choice", choice, "--trace", trace], \
            lambda text: oracles.check_complete_qn(blocks, choice, text, trace.read_text())

    def op_refute_blocks(self, blocks):
        return [REFUTE_BLOCKS, blocks], lambda text: \
            oracles.check_refute_blocks(json.loads(text))

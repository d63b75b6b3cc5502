"""Traced in-process run: per-module spans and counts.

The workload's commands run in this process through ``quadlat.cli.main``,
the entry point users run, each one plain and again with every public
function it reaches wrapped in a span (name, start, end, parent).  The
wrappers are installed on the module attributes for the traced run only,
so the package is unchanged and the plain runs show the tracing overhead.
Commands that take ``--jobs`` get ``--jobs 1`` so their inner calls stay in
this process.  Spans stay in memory and are written to ``.perfbench_out/``
when the run ends, with self time (duration minus the time covered by child
spans).  Counts are read from returned values.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import oracles
import refute_blocks
from child import SRC, Child
from operations import REFUTE_BLOCKS, Operations
from workloads import plan

RULES = (
    "seed:idempotent", "seed:block-cycle", "seed:centre-product", "seed:block-recurrence",
    "seed:centre-row", "seed:centre-col", "seed:choice", "seed:choice-row",
    "seed:choice-col", "seed:choice-wrap", "seed:choice-eq", "seed:choice-prev",
    "assume", "latin-cell-single", "latin-row-single", "latin-col-single", "bookend",
    "strong-elasticity", "alterability", "left-distributivity", "right-distributivity",
    "mediality",
)
IDENTITIES = oracles.IDENTITY_IDS


def rule_metric(rule: str) -> str:
    return "deduction.steps_by_rule." + (rule.replace(":", "-") if rule in RULES else "other")


# (name, unit) of every per-layer metric, in BENCHMARK.json order.  README.md
# maps each to the end-to-end metric and workload it should move.
LAYER_METRICS = [
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    ("zm.solve_quadratic_congruence.busy_s", "s"),
    ("zm.solve_quadratic_congruence.calls", "count"),
    ("zm.roots_found", "count"),
    ("zm.translatability_k_quadratical.busy_s", "s"),
    ("sweep.scan_k_table.busy_s", "s"),
    ("sweep.scan_k_table.self_s", "s"),
    ("sweep.classify.busy_s", "s"),
    ("sweep.classify.self_s", "s"),
    ("sweep.validate.busy_s", "s"),
    ("sweep.rows", "count"),
    ("sweep.emit_text.busy_s", "s"),
    ("sweep.output_bytes", "bytes"),
    ("sweep.discrepancies.busy_s", "s"),
    ("sweep.checkpoint.busy_s", "s"),
    ("sweep.checkpoint.self_s", "s"),
    ("sweep.checkpoint.flush_s", "s"),
    ("sweep.checkpoint.flushes", "count"),
    ("sweep.checkpoint.bytes_written", "bytes"),
    *((f"core.check.{i}.busy_s", "s") for i in IDENTITIES),
    ("core.check.holds", "count"),
    ("core.check.fails", "count"),
    ("core.is_quadratical.busy_s", "s"),
    ("core.find_isomorphism.found_s", "s"),
    ("core.find_isomorphism.none_s", "s"),
    ("core.direct_product.busy_s", "s"),
    ("core.dual.busy_s", "s"),
    ("qn.detect_form.busy_s", "s"),
    ("translatable.find_translatable_ordering.busy_s", "s"),
    ("tableio.read_table.busy_s", "s"),
    ("tableio.format_table.busy_s", "s"),
    ("tableio.bytes", "bytes"),
    ("deduction.refute_case.busy_s", "s"),
    ("deduction.refute_case.self_s", "s"),
    ("deduction.complete_qn.busy_s", "s"),
    ("deduction.replay_trace.busy_s", "s"),
    ("deduction.trace_text.busy_s", "s"),
    ("deduction.steps", "count"),
    *((rule_metric(r), "count") for r in RULES),
    ("deduction.steps_by_rule.other", "count"),
    ("deduction.splits", "count"),
    ("deduction.leaves", "count"),
    ("deduction.steps_per_s", "1/s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
]
UNITS = dict(LAYER_METRICS)


class Tracer:
    """Spans as [name, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._installed: list[tuple] = []

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a spanned call.  ``name`` may be a function
        of (args, result); ``count(counts, args, result)`` adds counts."""
        fn = getattr(owner, attr)

        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # self.span() inlined: this wrapper runs tens of thousands of times
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if callable(name):
                rec[0] = name(args, result)
            if count is not None:
                count(self.counts, args, result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner, attr, new):
        """Set owner.attr to new until unwrap()."""
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def unwrap(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def covered(self) -> list[float]:
        """Per span, the time its child spans cover."""
        out = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] += end - start
        return out

    def layer_values(self) -> dict:
        covered = self.covered()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _), kids in zip(self.spans, covered):
            busy[name] += end - start
            self_s[name] += end - start - kids
        values = {}
        for metric in UNITS:
            base, _, field = metric.rpartition(".")
            if field == "busy_s":
                values[metric] = busy[base]
            elif field == "self_s":
                values[metric] = self_s[base]
            elif metric in ("core.find_isomorphism.found_s", "core.find_isomorphism.none_s"):
                values[metric] = busy[metric[:-2]]
            elif metric == "sweep.checkpoint.flush_s":
                values[metric] = busy["sweep.checkpoint.flush"]
            else:
                values[metric] = self.counts[metric]
        solving = busy["deduction.refute_case"] + busy["deduction.complete_qn"]
        values["deduction.steps_per_s"] = self.counts["deduction.steps"] / solving if solving else 0
        return values

    def dump(self, path: Path):
        covered = self.covered()
        t0 = self.spans[0][1] if self.spans else 0.0
        path.write_text(json.dumps([
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "self": e - s - c}
            for (n, s, e, p), c in zip(self.spans, covered)]))


def count_trace(counts, trace):
    counts["deduction.steps"] += len(trace)
    for step in trace:
        counts[rule_metric(step.rule)] += 1


def count_case(counts, args, case):
    counts["deduction.splits"] += case.splits
    counts["deduction.leaves"] += len(case.leaves)
    for leaf in case.leaves:
        count_trace(counts, leaf.trace)
    if case.completed is not None:
        count_trace(counts, case.completed.trace)
    if case.stuck is not None:
        count_trace(counts, case.stuck.partial.trace)


def count_outcome(counts, args, out):
    count_trace(counts, out.partial.trace if hasattr(out, "partial") else out.trace)


def install(tr: Tracer, m: dict):
    """Wrap every public function the workloads reach, where it is looked up."""
    core, zm, sweep, qn = m["core"], m["zm"], m["sweep"], m["qn"]
    tableio, translatable, deduction = m["tableio"], m["translatable"], m["deduction"]

    def roots(counts, args, result):
        counts["zm.solve_quadratic_congruence.calls"] += 1
        counts["zm.roots_found"] += len(result)

    def rows(counts, args, result):
        counts["sweep.rows"] += len(result)

    for owner in (zm, sweep):
        tr.wrap(owner, "solve_quadratic_congruence", "zm.solve_quadratic_congruence", roots)
        tr.wrap(owner, "translatability_k_quadratical", "zm.translatability_k_quadratical")
    tr.wrap(sweep.ClassificationRow, "validate", "sweep.validate")
    tr.wrap(sweep, "scan_k_table", "sweep.scan_k_table", rows)
    tr.wrap(sweep, "classify", "sweep.classify", rows)
    tr.wrap(sweep, "scan_with_checkpoint", "sweep.checkpoint", rows)
    tr.wrap(sweep, "emit_text", "sweep.emit_text",
            lambda c, a, text: c.update({"sweep.output_bytes": len(text.encode())}))
    tr.wrap(sweep, "scan_discrepancies", "sweep.discrepancies")
    tr.wrap(sweep, "classify_discrepancies", "sweep.discrepancies")
    if hasattr(sweep, "_flush_checkpoint"):
        flush = sweep._flush_checkpoint

        def flushed(checkpoint_path, rows_path, *rest):
            size = Path(rows_path).stat().st_size if Path(rows_path).exists() else 0
            with tr.span("sweep.checkpoint.flush"):
                flush(checkpoint_path, rows_path, *rest)
            tr.counts["sweep.checkpoint.flushes"] += 1
            tr.counts["sweep.checkpoint.bytes_written"] += (
                Path(rows_path).stat().st_size - size + Path(checkpoint_path).stat().st_size)

        tr.patch(sweep, "_flush_checkpoint", flushed)

    def verdict(counts, args, result):
        counts["core.check.holds" if result is None else "core.check.fails"] += 1

    tr.wrap(core, "check_identity", lambda args, _: f"core.check.{args[1]}", verdict)
    for owner in (core, qn, deduction):
        tr.wrap(owner, "is_quadratical", "core.is_quadratical")
    tr.wrap(core, "find_isomorphism", lambda args, phi: "core.find_isomorphism."
            + ("none" if phi is None else "found"))
    tr.wrap(core, "direct_product", "core.direct_product")
    tr.wrap(core, "dual", "core.dual")
    tr.wrap(qn, "detect_form", "qn.detect_form")
    tr.wrap(translatable, "find_translatable_ordering", "translatable.find_translatable_ordering")
    tr.wrap(tableio, "read_table", "tableio.read_table",
            lambda c, a, _: c.update({"tableio.bytes": Path(a[0]).stat().st_size}))
    tr.wrap(tableio, "format_table", "tableio.format_table",
            lambda c, a, text: c.update({"tableio.bytes": len(text.encode())}))
    tr.wrap(deduction, "refute_case", "deduction.refute_case", count_case)
    tr.wrap(deduction, "complete_qn", "deduction.complete_qn", count_outcome)
    tr.wrap(deduction, "replay_trace", "deduction.replay_trace")
    tr.wrap(deduction, "trace_text", "deduction.trace_text")


# Commands that take --jobs: in-process they run with --jobs 1, so their
# inner calls stay in this process, where the spans are.
PARALLEL = ("scan", "classify", "refute-q6")


class InProcess:
    """Runs each Op's command through quadlat.cli.main (refute_blocks.main
    for REFUTE_BLOCKS) in this process, and checks its stdout."""

    def __init__(self, m: dict, operations: Operations):
        self.m = m
        self.operations = operations
        # unwrapped: cache_clear lives on the plain function, and the warm-up
        # read should not count as the command's tableio work
        self.is_quadratical = m["core"].is_quadratical
        self.read_table = m["tableio"].read_table

    def run(self, op):
        self.is_quadratical.cache_clear()
        args, check = self.operations.build(op)
        if args[0] == REFUTE_BLOCKS:
            main, args = refute_blocks.main, args[1:]
        else:
            main = self.m["cli"].main
            if args[0] in PARALLEL:
                args += ["--jobs", "1"]
        if op.kind == "detect":
            # the one deliberate warm-up: detect_form's span is then the search
            self.m["core"].is_quadratical(self.read_table(self.operations.files[op.args["table"]]))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
        if code != 0:
            raise oracles.OracleError(f"exit code {code}: {err.getvalue().strip()[-300:]}")
        check(out.getvalue())


def interpreter_times(work: Path, samples: int = 5):
    """Median wall time of a bare interpreter, and median in-process time
    to import quadlat.cli."""
    interp = statistics.median(
        Child([sys.executable, "-c", "pass"], work, work / "out.txt", 60).wall_s
        for _ in range(samples))
    code = ("import time; t = time.perf_counter(); import quadlat.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(samples):
        child = Child([sys.executable, "-c", code], work, work / "out.txt", 60)
        imports.append(float(child.stdout))
    return interp, statistics.median(imports)


def run_traced(workload: str, seed: int, seconds: float, work: Path, root: Path,
               time_left, log):
    """Run every operation twice, plain and traced, while another pass fits
    in `seconds`; report the median of each per-layer value over the passes.

    The two runs of an operation are adjacent, start from the same
    checkpoint files, and swap order from one operation to the next, so
    the machine's drift and first-run effects mostly cancel in the
    overhead."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    m = {name: importlib.import_module(f"quadlat.{name}") for name in
         ("cli", "core", "zm", "sweep", "qn", "tableio", "translatable", "deduction")}
    tables, ops = plan(workload, seed)
    runner = InProcess(m, Operations(work, tables, ops))
    interp, imports = interpreter_times(work)
    state = [work / "scan.ck", work / "scan.ck.rows"]
    samples, attempted, failed = [], 0, 0
    measure_start = time.monotonic()
    while True:
        tracer = Tracer()
        walls = {False: 0.0, True: 0.0}
        for i, op in enumerate(ops):
            saved = {p: p.read_bytes() for p in state if p.exists()}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                for p in state:
                    p.unlink(missing_ok=True)
                for p, data in saved.items():
                    p.write_bytes(data)
                if traced:
                    install(tracer, m)
                attempted += 1
                start = time.perf_counter()
                try:
                    runner.run(op)
                except Exception:   # a failed operation is counted, and the run goes on
                    failed += 1
                    log(f"FAIL {op.label}:\n{traceback.format_exc()}")
                finally:
                    walls[traced] += time.perf_counter() - start
                    tracer.unwrap()
        values = tracer.layer_values()
        values.update({"cli.interp_s": interp, "cli.import_s": imports,
                       "trace.untraced_s": walls[False], "trace.traced_s": walls[True],
                       "trace.overhead_s": walls[True] - walls[False]})
        samples.append(values)
        elapsed = time.monotonic() - measure_start
        per_pass = elapsed / len(samples)
        if failed or elapsed + per_pass > seconds or time_left() < 10 + per_pass:
            break
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{workload}-seed{seed}.json")
    log(f"{workload}: {len(samples)} passes of {len(ops)} operations, each plain and traced;"
        f" spans in {out.name}/spans-{workload}-seed{seed}.json")
    metrics = {name: statistics.median(s[name] for s in samples) for name in UNITS}
    return metrics, UNITS, attempted, failed

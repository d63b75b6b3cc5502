"""quadlat benchmark: end-to-end CLI times, or a traced per-module run.

    python3 perfbench/run.py --workload {sweep,tables,blocks,all} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run it from the root of a source checkout; the package is taken from
``src/``.  With ``--trace 0`` every operation of the workload runs as a
fresh ``python -m quadlat.cli`` process (or refute_blocks.py where no command
exists), one at a time, and passes repeat while another fits in S seconds.
Each process is timed from spawn until it has exited, and its CPU time and
peak RSS come from ``os.wait4``, which folds in the pool workers it reaped.
With ``--trace 1`` the same commands run in this process through
``quadlat.cli.main``, once plain and once with a span around every call into
a module's public functions (see traced.py).  Every output is checked by
oracles.py.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracles
from child import ROOT, SRC, Child
from operations import REFUTE_BLOCKS, Operations
from oracles import OracleError
from workloads import WORKLOADS, plan

RUN_LIMIT_S = 170   # the whole run must end within 180 s
SETUP_SAMPLES = 5   # at the start, then one after every operation
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "quadlat.cli", *map(str, args)]


def run_process(operations: Operations, op, timeout) -> Child:
    """Run one Op as a fresh process and check its output."""
    args, check = operations.build(op)
    argv = [sys.executable, *args] if args[0] == REFUTE_BLOCKS else cli(*args)
    child = Child(argv, operations.work, operations.work / "stdout.txt", timeout)
    if child.code != 0:
        raise OracleError(f"exit code {child.code}: {child.stderr.strip()[-300:]}")
    check(child.stdout)
    return child


def check_checkout(work: Path):
    """Refuse to run when `quadlat` resolves to a copy outside this checkout."""
    child = Child([sys.executable, "-c", "import quadlat; print(quadlat.__file__)"],
                  work, work / "where.txt", 60)
    if child.code != 0:
        raise SystemExit(f"error: cannot import quadlat: {child.stderr.strip()}")
    where = Path(child.stdout.strip()).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: quadlat resolves to {where}, outside {SRC}")
    # cpu_s relies on wait4 counting the CPU of workers the child reaped
    busy = "import time\nt = time.process_time() + 0.2\nwhile time.process_time() < t: pass"
    child = Child([sys.executable, "-c", "import subprocess, sys; subprocess.run("
                   f"[sys.executable, '-c', {busy!r}], check=True)"], work, work / "where.txt", 60)
    if child.code != 0 or child.cpu_s < 0.2:
        raise SystemExit(f"error: wait4 reports {child.cpu_s:.3f} s CPU for a 0.2 s grandchild")


def setup_call(work: Path) -> float:
    """Wall time of a CLI call that does no mathematical work: interpreter
    start, importing quadlat and building the parser."""
    return Child(cli("--help"), work, work / "help.txt", 60).wall_s


def run_cli(workload: str, seed: int, seconds: float, work: Path, started: float, log):
    """Repeat the workload's operations while another pass fits in
    `seconds`; the first pass always runs.  Each
    metric is a sum (or maximum) over operations of that operation's median
    over passes; a set-up call follows every operation."""
    tables, ops = plan(workload, seed)
    operations = Operations(work, tables, ops)
    setup_call(work)   # warm the bytecode cache
    setup = [setup_call(work) for _ in range(SETUP_SAMPLES)]
    walls, cpus, rsss = ([[] for _ in ops] for _ in range(3))
    attempted = failed = passes = 0
    measure_start = time.monotonic()
    while not failed:
        for i, op in enumerate(ops):
            remaining = RUN_LIMIT_S - (time.monotonic() - started)
            attempted += 1
            try:
                child = run_process(operations, op, max(remaining, 1.0))
            except Exception:   # a failed operation is counted, and the run goes on
                failed += 1
                log(f"FAIL {op.label}:\n{traceback.format_exc()}")
                continue
            walls[i].append(child.wall_s)
            cpus[i].append(child.cpu_s)
            rsss[i].append(child.rss_mb)
            setup.append(setup_call(work))
        passes += 1
        elapsed = time.monotonic() - measure_start
        # stop when another pass would overrun `seconds` or the run limit
        if (elapsed + elapsed / passes > seconds
                or time.monotonic() - started + elapsed / passes > RUN_LIMIT_S - 10):
            break
    med = [statistics.median(w) if w else 0.0 for w in walls]
    for op, wall in zip(ops, med):
        log(f"  {wall:8.4f} s  {op.label}")
    metrics = {
        "wall_s": sum(med),
        "cpu_s": sum(statistics.median(c) for c in cpus if c),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max((statistics.median(r) for r in rsss if r), default=0.0),
    }
    log(f"{workload}: {passes} passes of {len(ops)} operations, {len(setup)} set-up calls")
    return metrics, UNITS, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only check that every oracle rejects its corrupted output")
    args = ap.parse_args(argv)
    started = time.monotonic()

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    missed = oracles.selftest()
    if missed:
        log("oracle self-test failed to reject: " + ", ".join(missed))
        return 2
    if args.selftest:
        print("oracle self-test: every corrupted output rejected")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if not (SRC / "quadlat" / "cli.py").is_file():
        log(f"error: no package sources at {SRC}")
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    results = {}
    try:
        check_checkout(work)
        for w in workloads:
            if w != workloads[0]:
                started = time.monotonic()   # the run limit holds per workload
            if args.trace:
                import traced

                results[w] = traced.run_traced(
                    w, args.seed, args.seconds, work, ROOT,
                    lambda start=started: RUN_LIMIT_S - (time.monotonic() - start), log)
            else:
                results[w] = run_cli(w, args.seed, args.seconds, work, started, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"seed={args.seed} nproc={os.cpu_count()} python={platform.python_version()}"
          f" trace={args.trace}")
    attempted = sum(r[2] for r in results.values())
    failed = sum(r[3] for r in results.values())
    metrics = {}
    for w, (values, units, att, fail) in results.items():
        print(f"{w}: fail_ratio {fail / att:.4f} 1 ({fail} of {att} operations failed)")
        for name, value in values.items():
            print(f"{w}: {name} {value:.6g} {units[name]}")
            key = name if len(results) == 1 else f"{w}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--record FILE --set N]

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles as a share of that median
(statistics.quantiles(values, n=4)), the figure BENCHMARK.json's bounds are
set against.  --record appends each run, with its set number, seed, nproc,
Python version and duration, to a JSON list.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--record", type=Path)
    ap.add_argument("--set", type=int, default=1, help="set number stored with each run")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
        took = time.monotonic() - start
        result = json.loads(done.stdout.splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: {took:.1f} s, failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
        runs.append({"set": args.set, "workload": args.workload, "seed": seed,
                     "nproc": os.cpu_count(), "python": platform.python_version(),
                     "run_s": round(took, 1), "correct": result["correct"],
                     "metrics": values})
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:12s} median {med:.4f} {metric['unit']:3s} spread {(q3 - q1) / med:.3f}"
              f" (bound {metric['bound']})")
    if args.record:
        old = json.loads(args.record.read_text()) if args.record.exists() else []
        args.record.write_text(json.dumps(old + runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

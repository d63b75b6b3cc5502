"""Refute every centre*a choice at one block count, then replay every
leaf and completion.  No CLI command does this beyond six blocks, so the
benchmark runs it as a fresh process calling the public functions:

    PYTHONPATH=src python3 perfbench/refute_blocks.py BLOCKS

Prints one JSON object that oracles.check_refute_blocks accepts.
"""

from __future__ import annotations

import json
import sys


def refute_and_replay(deduction, blocks: int) -> dict:
    """Run refute_case for choices 1..4, then replay_trace on each result.
    Calls go through the module attributes, so a traced run can wrap them."""
    cases = [deduction.refute_case(blocks, choice) for choice in (1, 2, 3, 4)]
    out = []
    for choice, case in zip((1, 2, 3, 4), cases):
        replayed = 0
        for leaf in case.leaves:
            deduction.replay_trace(blocks, choice, leaf.trace, leaf.conflict)
            replayed += 1
        entry = {"choice": choice, "leaves": len(case.leaves), "splits": case.splits}
        if case.refuted:
            entry["verdict"] = "refuted"
        elif case.completed is not None:
            deduction.replay_trace(blocks, choice, case.completed.trace)
            replayed += 1
            entry["trace"] = deduction.trace_text(case.completed.trace)
            entry["verdict"] = "completed"
            entry["table"] = [list(row) for row in case.completed.table.entries]
        else:
            entry["verdict"] = "stuck"
        entry["replayed"] = replayed
        out.append(entry)
    return {"blocks": blocks, "cases": out}


def main(argv=None) -> int:
    from quadlat import deduction

    blocks = int((sys.argv[1:] if argv is None else argv)[0])
    json.dump(refute_and_replay(deduction, blocks), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

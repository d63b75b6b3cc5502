"""The trace records that the deduction engine writes and its auditor reads.

``quadlat.deduction`` makes traces of these records and ``quadlat.audit``
replays them; this small module is all the two share, so a process that
only deduces loads no auditor.
"""

from __future__ import annotations

import gc
from functools import lru_cache, wraps
from typing import NamedTuple

from .qn import seed_assignments


class Step(NamedTuple):
    rule: str
    cell: tuple[int, int]
    value: int
    premises: tuple
    binding: tuple


class Conflict(NamedTuple):
    kind: str
    rule: str
    cell: tuple[int, int]
    value: int
    existing: int
    premises: tuple
    binding: tuple


class ReplayError(Exception):
    """A trace step or conflict is not justified by the rule set."""


# One entry per (blocks, choice): the refutation of one block count runs
# four choices, and the blocks benchmark's 5-12 blocks are 32.  Typed, so
# that 5.0 blocks are not served the steps of 5.
@lru_cache(maxsize=32, typed=True)
def seed_steps(blocks: int, choice: int) -> tuple[Step, ...]:
    """The seed list of qn.seed_assignments as trace steps, one object per
    seed.  The engine puts these very objects in its traces, so the
    auditor can tell a trace that starts with them by identity."""
    return tuple(Step(rule, cell, v, (), ()) for rule, cell, v in seed_assignments(blocks, choice))


def _collector_paused(fn):
    """fn with Python's cyclic garbage collector paused while it runs, and
    left on or off as it was found.  A saturation allocates tens of
    thousands of trace steps and no reference cycles, so each full
    collection only re-scans the live traces: about a sixth of
    refute_case's time at 5-12 blocks.  The collector is process-wide: in
    a threaded host no thread's cycles are collected during the call."""
    @wraps(fn)
    def run(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return run

"""The trace records that the deduction engine writes and its auditor reads.

``quadlat.deduction`` makes traces of these records and ``quadlat.audit``
replays them; this small module, which imports no other quadlat module,
is all the two share, so a process that only deduces loads no auditor.

A Step states each fact once: the rule, the cell and value it assigns,
and the premises it cites, each a known cell as (r, c), whose value the
step that assigned it states.  A Conflict adds its kind; a cell-mismatch
leaves the value its cell already holds to the step that assigned it.
What a rule reads beyond its own cell is in the premises: alterability's
x*y = z*w are the cells of its first two.
"""

import gc
from functools import wraps
from typing import NamedTuple


class Step(NamedTuple):
    rule: str
    cell: tuple[int, int]
    value: int
    premises: tuple


class Conflict(NamedTuple):
    kind: str
    rule: str
    cell: tuple[int, int]
    value: int
    premises: tuple


class ReplayError(Exception):
    """A trace step or conflict is not justified by the rule set."""


def _collector_paused(fn):
    """fn with Python's cyclic garbage collector paused while it runs, and
    left on or off as it was found.  A saturation allocates tens of
    thousands of trace steps and no reference cycles, so each full
    collection only re-scans the live traces.  The pause pays most on
    large cases: in fresh processes, paused and unpaused runs alternating
    (2 CPUs, Python 3.11.7, a shared host), refute_case(30, 1) took a
    median 2.24 s paused against 2.40 s (faster in 5 of 6 pairs), while
    refute_case over 5-12 blocks x 4 choices plus the replay of every leaf
    took 0.51 s against 0.55 s (10 of 16).  The collector is
    process-wide: in a threaded host no thread's cycles are collected
    during the call."""
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

"""The trace records that the deduction engine writes and its auditor reads.

``quadlat.deduction`` makes traces of these records and ``quadlat.audit``
replays them; this small module, with the block cap both refuse past, is
all the two share, so a process that only deduces loads no auditor.

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

from .cayley import MAX_ORDER
from .errors import SearchCapExceeded

# The largest block count the engine and the auditor take, 256: a table of
# order 4*256+1 = cayley.MAX_ORDER.  check_blocks refuses a larger count
# with SearchCapExceeded before any table is allocated (the command line
# exits 3), instead of filling memory.
MAX_BLOCKS = (MAX_ORDER - 1) // 4


def check_blocks(blocks: int) -> None:
    if blocks > MAX_BLOCKS:
        raise SearchCapExceeded(
            f"{blocks} blocks exceed the cap of {MAX_BLOCKS} blocks "
            f"(order {4 * MAX_BLOCKS + 1})")


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

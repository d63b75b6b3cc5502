"""Sweeps over moduli regenerating the classification tables.

One driver, _rows, reads the roots of every modulus up to a bound off its
representations m = x^2 + y^2, walked by gauss.primitive_norms on one
thread; scan, classify and the checkpointed scan filter its rows.
Results are a pure function of the bounds.  The checkpoint holds only the
largest bound scanned, as the single line ``last_m=<digits>``; anything
else is refused as corrupt.
"""

import os
from typing import NamedTuple

from . import gauss
from .errors import CheckpointBusy, InvariantViolation, SearchCapExceeded, check_int
# nothing here calls solve_quadratic_congruence, but perfbench/traced.py
# wraps it under this module's name too
from .zm import solve_quadratic_congruence, translatability_k_quadratical

SCAN_COLUMNS = ("k", "m", "a", "b")
CLASSIFY_COLUMNS = ("m", "a", "b", "k")

# The largest modulus the walk of _rows reads: `classify --max-m 10**7`
# took 13 s and 584 MB on 2 CPUs with Python 3.11.7.  A larger walk bound
# raises SearchCapExceeded before the walk starts (the command line exits
# 3), instead of running until memory runs out.  scan's walk bound follows
# max_k, so a huge max_m with a moderate max_k stays under it.
MAX_SWEEP_M = 10**7


class ClassificationRow(NamedTuple):
    m: int
    a: int
    b: int
    k: int

    def validate(self) -> None:
        if not (0 <= self.a < self.m and 0 <= self.b < self.m):
            raise InvariantViolation(f"{self}: a or b not reduced mod m")
        if (2 * self.a * self.a - 2 * self.a + 1) % self.m != 0:
            raise InvariantViolation(f"{self}: a fails the quadratic congruence")
        if (self.a + self.b) % self.m != 1 % self.m:
            raise InvariantViolation(f"{self}: a + b != 1 (mod m)")
        if ((self.a - 1) * self.k - self.a) % self.m != 0:
            raise InvariantViolation(f"{self}: k fails (a-1)k = a (mod m)")
        dual_k = translatability_k_quadratical(self.m, self.b)
        if self.k + dual_k != self.m:
            raise InvariantViolation(f"{self}: dual shift {dual_k} does not pair")


def _row(m: int, a: int) -> ClassificationRow:
    """The validated row of the root a modulo m.  Its shift solves
    (a-1)k = a; validate() checks that and the pairing with the dual's
    shift."""
    row = ClassificationRow(m, a, (1 - a) % m, a * pow(a - 1, -1, m) % m)
    row.validate()
    return row


def _rows(last: int, representatives: bool = False) -> list[ClassificationRow]:
    """The validated row of every root of every modulus m <= last, sorted
    by (m, a); with representatives, only the a < b row of each dual pair.

    Each primitive x + iy of norm m gives the pair of roots a = (1 + s)/2
    and (1 - s)/2 with s = x/y (mod m); gauss says why that meets every
    root once.  A last above MAX_SWEEP_M raises SearchCapExceeded before
    the walk starts."""
    if last > MAX_SWEEP_M:
        raise SearchCapExceeded(
            f"the sweep would read every modulus up to {last}, "
            f"above the cap of {MAX_SWEEP_M}")
    found = []
    for m, x, y in gauss.primitive_norms(last):
        half = (m + 1) // 2   # the inverse of 2 modulo the odd m
        s = x * pow(y, -1, m)
        a, b = (1 + s) * half % m, (1 - s) * half % m
        if representatives:
            found.append((m, min(a, b)))
        else:
            found += ((m, a), (m, b))
    found.sort()
    return [_row(m, a) for m, a in found]


def scan_k_table(max_m: int, max_k: int) -> list[ClassificationRow]:
    """All rows with m <= max_m and k < max_k, sorted by (k, m, a).

    A row's shift k is a/(a-1) = (1 + s)/(s - 1) for a square root s of -1,
    so k^2 + 1 = 2(s^2 + 1)/(s - 1)^2 = 0 (mod m): m divides k^2 + 1.  A row
    with k < max_k therefore has m <= (max_k - 1)^2 + 1, and the walk stops
    there, so its cost follows max_k, not max_m."""
    check_int("max_m", max_m, 1)
    check_int("max_k", max_k, 1)
    last = min(max_m, (max_k - 1) ** 2 + 1)
    return sorted((r for r in _rows(last) if r.k < max_k), key=lambda r: (r.k, r.m, r.a))


def classify(max_m: int) -> list[ClassificationRow]:
    """One row per dual pair with m <= max_m, keeping the a < b
    representative, sorted by (m, a)."""
    check_int("max_m", max_m, 1)
    return _rows(max_m, representatives=True)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_text(rows, fmt: str, columns=SCAN_COLUMNS) -> str:
    """CSV (header = columns) or JSON (array of row objects); byte
    deterministic for fixed input."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(str(getattr(r, c)) for c in columns) for r in rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json  # only --format json needs it

        return json.dumps([{c: getattr(r, c) for c in columns} for r in rows], indent=0) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# checkpointed scans
# ---------------------------------------------------------------------------

def _recorded_last_m(checkpoint_path) -> int:
    """last_m from the checkpoint, or 1 when there is none.  Raises
    ValueError on a checkpoint other than ``last_m=<digits>``."""
    if not os.path.exists(checkpoint_path):
        return 1
    with open(checkpoint_path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    digits = text[len("last_m="):]
    if not (text.startswith("last_m=") and digits.isascii() and digits.isdigit()):
        raise ValueError(f"corrupt checkpoint {checkpoint_path}: {text!r}")
    return int(digits)


def scan_with_checkpoint(max_m: int, max_k: int, checkpoint_path) -> list[ClassificationRow]:
    """scan_k_table(max_m, max_k), recording in the checkpoint the largest
    bound scanned: a max_m above the recorded last_m replaces it through
    PATH.tmp.  Every run rebuilds its rows, which costs no more than
    reading them back from a file would.  Raises ValueError on a corrupt
    checkpoint.  One writer per checkpoint: the scan holds an exclusive
    lock on PATH.lock throughout, and raises CheckpointBusy at once if
    another open file holds it."""
    import fcntl  # only checkpointed scans lock

    lock_path = str(checkpoint_path) + ".lock"
    with open(lock_path, "a", encoding="utf-8") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CheckpointBusy(
                f"checkpoint {checkpoint_path} is in use: another writer "
                f"holds {lock_path}") from None
        last_m = _recorded_last_m(checkpoint_path)
        rows = scan_k_table(max_m, max_k)
        if max_m > last_m:
            tmp = str(checkpoint_path) + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(f"last_m={max_m}\n")
            os.replace(tmp, checkpoint_path)
        return rows


# ---------------------------------------------------------------------------
# discrepancy report against the bundled reference transcription
# ---------------------------------------------------------------------------

class Discrepancy(NamedTuple):
    m: int
    a: int
    field: str
    reference_value: int | None
    computed_value: int | None
    note: str

    def __str__(self):
        return (f"m={self.m} a={self.a}: {self.field} reference="
                f"{self.reference_value} computed={self.computed_value} ({self.note})")


def _compare(rows, reference: dict) -> list[Discrepancy]:
    computed = {(r.m, r.a): {"b": r.b, "k": r.k} for r in rows}
    out = []
    for key in sorted(set(computed) | set(reference)):
        m, a = key
        comp = computed.get(key)
        ref = reference.get(key)
        if comp is None:
            out.append(Discrepancy(m, a, "row", 1, None,
                                   "transcribed row not produced by the formulas"))
            continue
        if ref is None:
            out.append(Discrepancy(m, a, "row", None, 1,
                                   "computed row missing from the transcription"))
            continue
        for field in ("b", "k"):
            if comp[field] != ref[field]:
                out.append(Discrepancy(
                    m, a, field, ref[field], comp[field],
                    "transcription disagrees with the defining congruences"))
    return out


def scan_discrepancies(rows, max_m: int, max_k: int) -> list[Discrepancy]:
    """Differences between computed scan rows and the bundled reference,
    restricted to the sweep bounds."""
    check_int("max_m", max_m, 1)
    check_int("max_k", max_k, 1)
    from . import refdata  # only the discrepancy reports read it

    reference = {
        (m, a): {"b": b, "k": k}
        for (k, m, a, b) in refdata.REFERENCE_SCAN_ROWS
        if m <= max_m and k < max_k
    }
    return _compare(rows, reference)


def classify_discrepancies(rows, max_m: int) -> list[Discrepancy]:
    check_int("max_m", max_m, 1)
    from . import refdata

    reference = {
        (m, a): {"b": b, "k": k}
        for (m, a, b, k) in refdata.REFERENCE_CLASSIFY_ROWS
        if m <= max_m
    }
    return _compare(rows, reference)

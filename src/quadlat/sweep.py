"""Sweeps over moduli regenerating the classification tables.

One driver, _rows, walks m upward on one thread over a sieve built once
by _sieve, visiting only the moduli that have roots and taking those roots
in closed form; scan, classify and the checkpointed scan filter its rows.
Results are a pure function of the bounds.  The checkpoint format is a
single line ``last_m=<int>``; anything else is refused as corrupt.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import compress
from operator import eq

from . import refdata
from .errors import CheckpointBusy, InvariantViolation
from .zm import (
    smallest_prime_factors,
    solve_quadratic_congruence,
    sqrt_minus_one_table,
    translatability_k_quadratical,
)

SCAN_COLUMNS = ("k", "m", "a", "b")
CLASSIFY_COLUMNS = ("m", "a", "b", "k")


@dataclass(frozen=True, order=True)
class ClassificationRow:
    m: int
    a: int
    b: int
    k: int

    def validate(self) -> None:
        if (2 * self.a * self.a - 2 * self.a + 1) % self.m != 0:
            raise InvariantViolation(f"{self}: a fails the quadratic congruence")
        if (self.a + self.b) % self.m != 1 % self.m:
            raise InvariantViolation(f"{self}: a + b != 1 (mod m)")
        if ((self.a - 1) * self.k - self.a) % self.m != 0:
            raise InvariantViolation(f"{self}: k fails (a-1)k = a (mod m)")
        dual_k = translatability_k_quadratical(self.m, self.b)
        if self.k + dual_k != self.m:
            raise InvariantViolation(f"{self}: dual shift {dual_k} does not pair")

    def as_dict(self, columns) -> dict:
        return {c: getattr(self, c) for c in columns}


def rows_for_modulus(m: int, spf=None, representatives: bool = False,
                     roots=None) -> list[ClassificationRow]:
    """One validated row per solution a of the quadratic congruence mod m,
    in increasing a; empty below the smallest admissible order 5.  spf is
    an optional smallest_prime_factors table covering m, and roots an
    optional sqrt_minus_one_table covering it.  With representatives, only
    the a < b row of each dual pair is built."""
    if m < 5:
        return []
    out = []
    for a in solve_quadratic_congruence(m, spf, roots):
        b = (1 - a) % m
        if representatives and not a < b:
            continue
        # the shift solves (a-1)k = a; validate() checks it and its pairing
        # with the dual's shift
        row = ClassificationRow(m, a, b, a * pow(a - 1, -1, m) % m)
        row.validate()
        out.append(row)
    return out


def _sieve(last: int):
    """The smallest_prime_factors table up to last, a bytearray with a 1 at
    exactly the m <= last that have roots, and the sqrt_minus_one_table of
    the primes up to last.  The m with roots are those >= 5, odd, with
    every prime factor 1 (mod 4), so m = 1 (mod 4).  An m = 1 (mod 4) with
    a prime factor p = 3 (mod 4) is p times a cofactor that is 3 (mod 4);
    so one slice per such prime p <= last/3 clears all of those m."""
    spf = smallest_prime_factors(last)
    admissible = bytearray(last + 1)
    admissible[5::4] = b"\x01" * len(range(5, last + 1, 4))
    candidates = range(3, last // 3 + 1, 4)
    for p in compress(candidates, map(eq, spf[3::4], candidates)):
        admissible[3 * p::4 * p] = bytes(len(range(3 * p, last + 1, 4 * p)))
    return spf, admissible, sqrt_minus_one_table(spf)


def _rows(first: int, last: int, sieve, representatives: bool = False) -> list[ClassificationRow]:
    """The rows_for_modulus(m, representatives=...) of m = first..last in
    increasing order, from a _sieve covering last; only the moduli with
    roots are visited (87,881 of the first 10^6), and the square roots of
    -1 come from the sieve's table."""
    spf, admissible, roots = sieve
    return [r for m in compress(range(first, last + 1), admissible[first:last + 1])
            for r in rows_for_modulus(m, spf, representatives, roots)]


def _scan_order(rows) -> list[ClassificationRow]:
    return sorted(rows, key=lambda r: (r.k, r.m, r.a))


def scan_k_table(max_m: int, max_k: int) -> list[ClassificationRow]:
    """All rows with m <= max_m and k < max_k, sorted by (k, m, a)."""
    if max_m < 1 or max_k < 1:
        raise ValueError("bounds must be positive")
    return _scan_order(r for r in _rows(2, max_m, _sieve(max_m)) if r.k < max_k)


def classify(max_m: int) -> list[ClassificationRow]:
    """One row per dual pair with m <= max_m, keeping the a < b
    representative, sorted by (m, a)."""
    if max_m < 1:
        raise ValueError("bound must be positive")
    return _rows(2, max_m, _sieve(max_m), representatives=True)


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
        return json.dumps([r.as_dict(columns) for r in rows], indent=0) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit(rows, fmt: str, path, columns=SCAN_COLUMNS) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_text(rows, fmt, columns))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# checkpointed scans
# ---------------------------------------------------------------------------

# moduli per checkpoint flush: a flush costs about 0.25 ms, far more than
# the root work for one m, and redoing a block after an interrupt takes
# milliseconds
CHECKPOINT_EVERY = 1000


def _rows_path(checkpoint_path) -> str:
    return str(checkpoint_path) + ".rows"


def _load_checkpoint(checkpoint_path):
    if not os.path.exists(checkpoint_path):
        return 1, []
    with open(checkpoint_path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text.startswith("last_m=") or not text[len("last_m="):].isdigit():
        raise ValueError(f"corrupt checkpoint {checkpoint_path}: {text!r}")
    last_m = int(text[len("last_m="):])
    saved = []
    rows_path = _rows_path(checkpoint_path)
    if os.path.exists(rows_path):
        with open(rows_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    k, m, a, b = (int(p) for p in line.split(","))
                except ValueError:
                    raise ValueError(
                        f"corrupt row archive {rows_path}: {line!r}") from None
                if m <= last_m:
                    saved.append(ClassificationRow(m, a, b, k))
    return last_m, saved


def scan_with_checkpoint(max_m: int, max_k: int, checkpoint_path) -> list[ClassificationRow]:
    """Resumable scan: recomputes from the recorded last_m + 1 and merges
    with the saved partial rows; the result is identical to an
    uninterrupted scan_k_table(max_m, max_k).  The row archive next to the
    checkpoint stores every row of each fully processed m, so the bounds
    may differ between runs.  Progress is flushed whenever m reaches a
    multiple of CHECKPOINT_EVERY, and once more at max_m, so an interrupt
    loses at most one block of moduli.  One writer per checkpoint: the
    scan holds an exclusive lock on PATH.lock throughout, and raises
    CheckpointBusy at once if another open file holds it."""
    import fcntl  # only checkpointed scans lock

    lock_path = str(checkpoint_path) + ".lock"
    with open(lock_path, "a", encoding="utf-8") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CheckpointBusy(
                f"checkpoint {checkpoint_path} is in use: another writer "
                f"holds {lock_path}") from None
        return _locked_scan(max_m, max_k, checkpoint_path)


def _locked_scan(max_m: int, max_k: int, checkpoint_path) -> list[ClassificationRow]:
    last_m, saved = _load_checkpoint(checkpoint_path)
    rows_path = _rows_path(checkpoint_path)
    if saved or last_m > 1:
        # drop any rows past the recorded frontier (a flush may have been
        # interrupted between the archive append and the checkpoint write)
        with open(rows_path, "w", encoding="utf-8") as fh:
            for r in saved:
                fh.write(f"{r.k},{r.m},{r.a},{r.b}\n")
    all_rows = list(saved)
    if last_m < max_m:
        sieve = _sieve(max_m)
        first = last_m + 1
        # flush at each multiple of CHECKPOINT_EVERY past last_m, then at max_m
        ends = range(-(-first // CHECKPOINT_EVERY) * CHECKPOINT_EVERY, max_m, CHECKPOINT_EVERY)
        for end in (*ends, max_m):
            got = _rows(first, end, sieve)
            all_rows.extend(got)
            _flush_checkpoint(checkpoint_path, rows_path, end, got)
            first = end + 1
    return _scan_order(r for r in all_rows if r.m <= max_m and r.k < max_k)


def _flush_checkpoint(checkpoint_path, rows_path, last_m, pending) -> None:
    with open(rows_path, "a", encoding="utf-8") as fh:
        for r in pending:
            fh.write(f"{r.k},{r.m},{r.a},{r.b}\n")
    tmp = str(checkpoint_path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"last_m={last_m}\n")
    os.replace(tmp, checkpoint_path)


# ---------------------------------------------------------------------------
# discrepancy report against the bundled reference transcription
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Discrepancy:
    m: int
    a: int
    field: str
    reference_value: int | None
    computed_value: int | None
    note: str

    def __str__(self):
        return (f"m={self.m} a={self.a}: {self.field} reference="
                f"{self.reference_value} computed={self.computed_value} ({self.note})")


def _compare(computed: dict, reference: dict) -> list[Discrepancy]:
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
    computed = {(r.m, r.a): {"b": r.b, "k": r.k} for r in rows}
    reference = {
        (m, a): {"b": b, "k": k}
        for (k, m, a, b) in refdata.REFERENCE_SCAN_ROWS
        if m <= max_m and k < max_k
    }
    return _compare(computed, reference)


def classify_discrepancies(rows, max_m: int) -> list[Discrepancy]:
    computed = {(r.m, r.a): {"b": r.b, "k": r.k} for r in rows}
    reference = {
        (m, a): {"b": b, "k": k}
        for (m, a, b, k) in refdata.REFERENCE_CLASSIFY_ROWS
        if m <= max_m
    }
    return _compare(computed, reference)

"""Output checks for the benchmark that share no code with the package.

Every check raises OracleError on a wrong answer.  The expected values come
from number theory (closed forms for the sweeps), from the defining
equations of each identity, from verdicts pinned here, or from the
published listing in ``src/quadlat/refdata.py``, which is read as data with
``ast`` and never imported.
"""

from __future__ import annotations

import ast
import itertools
import re
from pathlib import Path


class OracleError(Exception):
    """An output failed its check."""


def require(cond, message):
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------

def prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def root_count(m: int) -> int:
    """Number of a in Z_m with 2a^2 - 2a + 1 = 0, i.e. of square roots of
    -1 mod m (s = 2a - 1): 2^omega(m) for odd m whose primes are all 1 mod 4,
    else 0."""
    if m == 1:
        return 1
    ps = prime_factors(m)
    if m % 2 == 0 or any(p % 4 != 1 for p in ps):
        return 0
    return 2 ** len(ps)


def check_row(m, a, b, k):
    require(0 <= a < m and 0 <= b < m and 0 <= k < m, f"row {(m, a, b, k)} out of range")
    require((2 * a * a - 2 * a + 1) % m == 0, f"row {(m, a, b, k)}: 2a^2-2a+1 != 0")
    require((a + b) % m == 1 % m, f"row {(m, a, b, k)}: a+b != 1")
    require(((a - 1) * k - a) % m == 0, f"row {(m, a, b, k)}: (a-1)k != a")


def expected_scan_rows(max_m: int, max_k: int) -> list[tuple[int, int, int, int]]:
    """Rows (k, m, a, b) of the low-shift scan, in output order.

    With a = k/(k-1), the quadratic holds iff m | k^2 + 1 (multiply by the
    unit (k-1)^2), so the rows are the odd m with k + 2 <= m <= max_m
    dividing k^2 + 1, for 2 <= k < max_k."""
    rows = []
    for k in range(2, max_k):
        q = k * k + 1
        for m in range(k + 2, min(q, max_m) + 1):
            if q % m == 0 and m % 2 == 1:
                a = k * pow(k - 1, -1, m) % m
                rows.append((k, m, a, (1 - a) % m))
    return rows


def scan_csv(rows) -> str:
    return "k,m,a,b\n" + "".join(f"{k},{m},{a},{b}\n" for k, m, a, b in rows)


def check_scan_csv(text: str, max_m: int, max_k: int):
    want = scan_csv(expected_scan_rows(max_m, max_k))
    if text != want:
        got = text.splitlines()
        exp = want.splitlines()
        for i, (g, e) in enumerate(zip(got, exp)):
            require(g == e, f"scan line {i}: {g!r}, expected {e!r}")
        raise OracleError(f"scan has {len(got)} lines, expected {len(exp)}")


def parse_csv_rows(text: str, header: str) -> list[tuple[int, ...]]:
    lines = text.splitlines()
    require(lines and lines[0] == header, f"bad csv header {lines[:1]!r}")
    try:
        return [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
    except ValueError:
        raise OracleError("non-integer csv field") from None


def check_classify_rows(rows, max_m: int):
    """rows are (m, a, b, k): one a < b representative per dual pair."""
    per_m: dict[int, int] = {}
    for m, a, b, k in rows:
        check_row(m, a, b, k)
        require(a < b, f"row {(m, a, b, k)} is not the a < b representative")
        require(2 <= k <= m - 2, f"row {(m, a, b, k)}: k outside 2..m-2")
        per_m[m] = per_m.get(m, 0) + 1
    require(rows == sorted(set(rows)), "classify rows unsorted or repeated")
    for m in range(2, max_m + 1):
        want = root_count(m) // 2 if m >= 5 else 0
        require(per_m.get(m, 0) == want,
                f"m={m}: {per_m.get(m, 0)} rows, expected {want}")


def check_solve(m: int, sols):
    require(sols == sorted(set(sols)), f"solve {m}: unsorted or repeated")
    for a in sols:
        require(0 <= a < m and (2 * a * a - 2 * a + 1) % m == 0, f"solve {m}: {a} is no root")
    require(len(sols) == root_count(m), f"solve {m}: {len(sols)} roots, expected {root_count(m)}")


_DISC = re.compile(r"m=(\d+) a=(\d+): (\w+) reference=")

# The two published scan rows whose b column contradicts a + b = 1 (mod m).
SCAN_DISCREPANCIES = {(13, 11, "b"), (685, 667, "b")}


def check_discrepancies(text: str, expected: set):
    if not expected:
        require(text == "no discrepancies\n", f"unexpected discrepancies {text!r}")
        return
    got = set()
    for line in text.splitlines():
        mt = _DISC.match(line)
        require(mt is not None, f"unparsable discrepancy line {line!r}")
        got.add((int(mt[1]), int(mt[2]), mt[3]))
    require(got == expected and len(text.splitlines()) == len(expected),
            f"discrepancies {sorted(got)}, expected {sorted(expected)}")


def reference_classify_rows(root: Path) -> list[tuple[int, int, int, int]]:
    """REFERENCE_CLASSIFY_ROWS from the published listing, read as a literal."""
    tree = ast.parse((root / "src" / "quadlat" / "refdata.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "REFERENCE_CLASSIFY_ROWS" for t in node.targets):
            return sorted(tuple(r) for r in ast.literal_eval(node.value))
    raise OracleError("REFERENCE_CLASSIFY_ROWS not found")


# ---------------------------------------------------------------------------
# Cayley tables (tuples of row tuples)
# ---------------------------------------------------------------------------

def table_text(e) -> str:
    return f"{len(e)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in e)


def parse_table(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    require(lines, "empty table")
    n = int(lines[0])
    rows = tuple(tuple(int(v) for v in ln.split()) for ln in lines[1:])
    require(len(rows) == n and all(len(r) == n for r in rows), "table shape")
    return rows


def is_latin(e) -> bool:
    full = set(range(len(e)))
    return all(set(r) == full for r in e) and all(set(c) == full for c in zip(*e))


def is_quadratical(e) -> bool:
    """Latin, idempotent, bookend and medial, checked from the definitions."""
    n = len(e)
    if not is_latin(e) or any(e[x][x] != x for x in range(n)):
        return False
    if any(e[e[y][x]][e[x][y]] != x for x in range(n) for y in range(n)):
        return False
    for x in range(n):
        for y in range(n):
            exy = e[e[x][y]]
            ey = e[y]
            for z in range(n):
                # (xy)(zw) = (xz)(yw) for all w, compared a row at a time
                if list(map(exy.__getitem__, e[z])) != list(map(e[e[x][z]].__getitem__, ey)):
                    return False
    return True


# Each identity as (arity, law): law(e, *v) is true iff the tuple v violates it.
LAWS = {
    "quadratical-law": (3, lambda e, x, y, z: e[e[x][y]][x] != e[e[z][x]][e[y][z]]),
    "idempotency": (1, lambda e, x: e[x][x] != x),
    "elasticity": (2, lambda e, x, y: e[x][e[y][x]] != e[e[x][y]][x]),
    "strong-elasticity": (2, lambda e, x, y: not (
        e[x][e[y][x]] == e[e[x][y]][x] == e[e[y][x]][y])),
    "bookend": (2, lambda e, x, y: e[e[y][x]][e[x][y]] != x),
    "left-distributivity": (3, lambda e, x, y, z: e[x][e[y][z]] != e[e[x][y]][e[x][z]]),
    "right-distributivity": (3, lambda e, x, y, z: e[e[x][y]][z] != e[e[x][z]][e[y][z]]),
    "mediality": (4, lambda e, x, y, z, w: e[e[x][y]][e[z][w]] != e[e[x][z]][e[y][w]]),
    "weave-left": (2, lambda e, x, y: e[x][e[y][e[y][x]]] != e[e[e[x][y]][x]][y]),
    "weave-right": (2, lambda e, x, y: e[e[e[x][y]][y]][x] != e[y][e[x][e[y][x]]]),
    "alterability": (4, lambda e, x, y, z, w: (e[x][y] == e[z][w]) != (e[y][z] == e[w][x])),
    "left-cancellation": (3, lambda e, x, y, z: y != z and e[x][y] == e[x][z]),
    "right-cancellation": (3, lambda e, x, y, z: y != z and e[y][x] == e[z][x]),
    "right-solvability": (2, lambda e, a, b: b not in e[a]),
    "latin-square": (3, lambda e, x, y, z: y != z and (
        e[x][y] == e[x][z] or e[y][x] == e[z][x])),
}
IDENTITY_IDS = tuple(LAWS)


def _violates(e, ident, v) -> bool:
    """True iff the tuple v is a counterexample to the identity."""
    arity, law = LAWS[ident]
    return len(v) == arity and law(e, *v)


def least_counterexamples(e) -> dict:
    """Per identity, its least violating tuple on e, or None where it holds:
    an exhaustive search from the defining equation."""
    n = len(e)
    return {ident: next((v for v in itertools.product(range(n), repeat=arity)
                         if law(e, *v)), None)
            for ident, (arity, law) in LAWS.items()}


def parse_check(text: str) -> dict:
    """``check`` text output as {identity: None | counterexample tuple}."""
    out = {}
    for line in text.splitlines():
        ident, _, verdict = line.partition(": ")
        if verdict == "holds":
            out[ident] = None
        else:
            mt = re.fullmatch(r"counterexample \(([\d, ]+?),?\)", verdict)
            require(mt is not None, f"unparsable check line {line!r}")
            out[ident] = tuple(int(v) for v in mt[1].split(","))
    return out


def check_identities(e, verdicts: dict, want: dict):
    """verdicts as ``check --all`` reports them; want maps each identity to
    None where it truly holds on e.  A "holds" must be true, and every
    counterexample must violate its identity."""
    require(tuple(verdicts) == IDENTITY_IDS, f"identities {list(verdicts)}")
    for ident, v in verdicts.items():
        if v is None:
            require(want[ident] is None, f"{ident} reported to hold, but {want[ident]} "
                    "violates it")
        else:
            require(all(0 <= x < len(e) for x in v) and _violates(e, ident, v),
                    f"{ident}: {v} is not a counterexample")


def check_isomorphism(e1, e2, perm):
    n = len(e1)
    require(perm is not None and sorted(perm) == list(range(n)), f"not a bijection: {perm}")
    for x in range(n):
        for y in range(n):
            require(perm[e1[x][y]] == e2[perm[x]][perm[y]],
                    f"phi({x}*{y}) != phi({x})*phi({y})")


def parse_perm(text: str):
    text = text.strip()
    return None if text == "none" else [int(v) for v in text.split()]


def chain_partitions(e, a: int, b: int, blocks: int) -> bool:
    """Whether the H-chain from base (a, b) and the centre aba partition
    the elements."""
    chain = [(a, e[a][b], e[b][a], b)]
    for _ in range(blocks - 1):
        p1, p2, p3, p4 = chain[-1]
        chain.append((e[p1][p2], e[p2][p4], e[p3][p1], e[p4][p3]))
    seen = [e[e[a][b]][a]] + [x for blk in chain for x in blk]
    return sorted(seen) == list(range(len(e)))


def check_detect_form(e, text: str, has_form: bool):
    text = text.strip()
    if not has_form:
        require(text == "none", f"detect-form found {text!r} on a table without block form")
        return
    mt = re.fullmatch(r"Q(\d+) with base \((\d+), (\d+)\)", text)
    require(mt is not None, f"detect-form output {text!r}")
    blocks, a, b = int(mt[1]), int(mt[2]), int(mt[3])
    require(4 * blocks + 1 == len(e), f"Q{blocks} does not have order {len(e)}")
    require(a != b and chain_partitions(e, a, b, blocks), f"base ({a}, {b}) gives no partition")


def translatable_ordering(e):
    """Least (ordering, k) making e k-translatable: row q of the reordered
    table is row 0 rotated right by q*k.  Exhaustive with pruning."""
    n = len(e)
    sigma: list[int] = []

    def ok(k):
        q = len(sigma) - 1
        for p in range(len(sigma)):
            for j in range(len(sigma)):
                s = (j - p * k) % n
                if s < len(sigma) and q in (p, j, s):
                    if e[sigma[p]][sigma[j]] != e[sigma[0]][sigma[s]]:
                        return False
        return True

    def extend(alive):
        if len(sigma) == n:
            return tuple(sigma), alive[0]
        for x in range(n):
            if x in sigma:
                continue
            sigma.append(x)
            still = [k for k in alive if ok(k)]
            found = extend(still) if still else None
            if found:
                return found
            sigma.pop()
        return None

    return extend(list(range(1, n)))


def check_order_search(e, text: str):
    text = text.strip()
    if text == "none":
        require(translatable_ordering(e) is None, "a translatable ordering exists")
        return
    mt = re.fullmatch(r"ordering: ([\d ]+)\nk: (\d+)", text)
    require(mt is not None, f"order-search output {text!r}")
    sigma = [int(v) for v in mt[1].split()]
    require(sorted(sigma) == list(range(len(e))), f"ordering {sigma} is no permutation")
    n, k = len(e), int(mt[2])
    for q in range(n):
        for j in range(n):
            require(e[sigma[q]][sigma[j]] == e[sigma[0]][sigma[(j - q * k) % n]],
                    f"ordering fails at row {q}")


def product_entries(e1, e2):
    n2 = len(e2)
    return tuple(
        tuple(e1[x1][y1] * n2 + e2[x2][y2] for y1 in range(len(e1)) for y2 in range(n2))
        for x1 in range(len(e1)) for x2 in range(n2))


def transpose(e):
    return tuple(zip(*e))


# ---------------------------------------------------------------------------
# block-form deduction
# ---------------------------------------------------------------------------

# complete-qn outcome per (blocks, choice), pinned from the saturation engine.
COMPLETE_QN = {
    (1, 1): "contradiction", (1, 2): "completed", (1, 3): "contradiction", (1, 4): "completed",
    (2, 1): "contradiction", (2, 2): "completed", (2, 3): "contradiction", (2, 4): "contradiction",
    (3, 1): "completed", (3, 2): "completed", (3, 3): "contradiction", (3, 4): "contradiction",
    (4, 1): "stuck", (4, 2): "completed", (4, 3): "completed", (4, 4): "contradiction",
}
# refute_case verdicts for 5..12 blocks: refuted unless listed as completed.
REFUTE_COMPLETED = {(7, 3), (7, 4), (9, 1), (9, 3)}

_STEP = re.compile(r"cell\((\d+),(\d+)\) := (\d+)  by ")


def trace_cells(trace: str) -> dict:
    """Cells assigned by a trace text; each cell may be assigned once."""
    cells = {}
    for line in trace.splitlines():
        if line.startswith("conflict:"):
            continue
        mt = _STEP.match(line)
        require(mt is not None, f"unparsable trace line {line[:60]!r}")
        cell = (int(mt[1]), int(mt[2]))
        require(cell not in cells, f"cell {cell} assigned twice")
        cells[cell] = int(mt[3])
    return cells


def check_completion(blocks, e, trace: str):
    """A completed table has order 4*blocks + 1, is quadratical, and its
    trace derives every cell with the value the table holds."""
    require(len(e) == 4 * blocks + 1, f"completion of order {len(e)} for {blocks} blocks")
    require(is_quadratical(e), "completed table is not quadratical")
    cells = trace_cells(trace)
    want = {(r, c): v for r, row in enumerate(e) for c, v in enumerate(row)}
    require(cells == want, f"trace derives {len(cells)} cells, table has {len(want)}")


def check_complete_qn(blocks, choice, text, trace):
    want = COMPLETE_QN[(blocks, choice)]
    first, _, rest = text.partition("\n")
    where = f"complete-qn {blocks},{choice}: {first!r}, expected {want}"
    if want == "completed":
        require(first == "completed", where)
        check_completion(blocks, parse_table(rest), trace)
        return
    cells = trace_cells(trace)
    if want == "contradiction":
        mt = re.fullmatch(r"contradiction \(([a-z-]+)\) after (\d+) deductions", first)
        require(mt is not None, where)
        require(trace.splitlines()[-1:] and trace.splitlines()[-1].startswith("conflict:"),
                "trace lacks its conflict")
        require(len(cells) == int(mt[2]), f"trace has {len(cells)} steps, output says {mt[2]}")
    else:
        mt = re.fullmatch(r"stuck with (\d+) of (\d+) cells known", first)
        require(mt is not None, where)
        require(len(cells) == int(mt[1]), f"trace has {len(cells)} steps, output says {mt[1]}")


def check_refute_q6(text: str):
    want = "".join(f"choice 6{c}: contradiction in every branch" for c in (1, 2, 3, 4))
    got = "".join(re.sub(r" \(.*\)$", "", ln) for ln in text.splitlines())
    require(got == want, f"refute-q6 output {text!r}")


def check_refute_blocks(report: dict):
    """Output of refute_blocks.py for one block count."""
    blocks = report["blocks"]
    require([c["choice"] for c in report["cases"]] == [1, 2, 3, 4], "missing choices")
    for case in report["cases"]:
        key = (blocks, case["choice"])
        want = "completed" if key in REFUTE_COMPLETED else "refuted"
        require(case["verdict"] == want, f"refute_case{key}: {case['verdict']}, expected {want}")
        require(case["replayed"] == case["leaves"] + (want == "completed"),
                f"refute_case{key}: {case['replayed']} traces replayed")
        if want == "refuted":
            require(case["leaves"] >= 1, f"refute_case{key}: no leaves")
        else:
            check_completion(blocks, tuple(map(tuple, case["table"])), case["trace"])


# ---------------------------------------------------------------------------
# self-test: each check must reject a corrupted output
# ---------------------------------------------------------------------------

def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except OracleError:
        return True
    return False


def linear(m, a, b):
    return tuple(tuple((a * x + b * y) % m for y in range(m)) for x in range(m))


def selftest() -> list[str]:
    """Names of the corruptions some check failed to reject."""
    missed = []

    def expect(name, ok):
        if not ok:
            missed.append(name)

    rows = expected_scan_rows(300, 20)
    good = scan_csv(rows)
    expect("scan accepts the closed form", not _rejects(check_scan_csv, good, 300, 20))
    k, m, a, b = rows[3]
    expect("scan wrong row", _rejects(check_scan_csv, scan_csv(
        rows[:3] + [(k, m, (a + 1) % m, b)] + rows[4:]), 300, 20))
    expect("scan dropped row", _rejects(check_scan_csv, scan_csv(rows[:-1]), 300, 20))

    cls = sorted((m, a, (1 - a) % m, a * pow(a - 1, -1, m) % m)
                 for m in range(5, 200) for a in range(m)
                 if (2 * a * a - 2 * a + 1) % m == 0 and a < (1 - a) % m)
    expect("classify accepts brute force", not _rejects(check_classify_rows, cls, 199))
    m, a, b, k = cls[5]
    expect("classify wrong row", _rejects(
        check_classify_rows, cls[:5] + [(m, a, b, k + 1)] + cls[6:], 199))
    expect("classify dropped row", _rejects(check_classify_rows, cls[:7] + cls[8:], 199))
    expect("solve dropped root", _rejects(check_solve, 65, [24, 29, 37]))

    disc = "m=13 a=11: b reference=7 computed=3 (x)\nm=685 a=667: b reference=198 computed=19 (x)\n"
    expect("discrepancies accepts the two", not _rejects(
        check_discrepancies, disc, SCAN_DISCREPANCIES))
    expect("discrepancies dropped line", _rejects(
        check_discrepancies, disc.split("\n")[0] + "\n", SCAN_DISCREPANCIES))

    q13 = linear(13, 3, 11)
    expect("detect-form accepts a base",
           not _rejects(check_detect_form, q13, "Q3 with base (0, 1)", True))
    expect("detect-form wrong base", _rejects(check_detect_form, q13, "Q3 with base (0, 0)", True))
    expect("detect-form flipped verdict", _rejects(check_detect_form, q13, "none", True))
    perm = [(5 * x + 2) % 13 for x in range(13)]   # an affine automorphism
    expect("iso accepts an automorphism", not _rejects(check_isomorphism, q13, q13, perm))
    perm[0], perm[1] = perm[1], perm[0]
    expect("iso wrong permutation", _rejects(check_isomorphism, q13, q13, perm))

    holds = dict.fromkeys(IDENTITY_IDS)
    expect("check accepts holds", not _rejects(check_identities, q13, holds, holds))
    expect("check flipped verdict", _rejects(
        check_identities, q13, {**holds, "mediality": (0, 1, 2, 3)}, holds))
    lin = linear(13, 2, 5)   # a medial quasigroup, not idempotent
    truth = least_counterexamples(lin)
    expect("check finds the failing laws", truth["mediality"] is None
           and truth["idempotency"] is not None)
    expect("check accepts true verdicts", not _rejects(check_identities, lin, truth, truth))
    expect("check false holds", _rejects(
        check_identities, lin, {**truth, "idempotency": None}, truth))

    q29 = linear(29, 9, 21)
    trace = "".join(f"cell({r},{c}) := {q29[r][c]}  by seed:x from []\n"
                    for r in range(29) for c in range(29))
    expect("completion accepts its trace", not _rejects(check_completion, 7, q29, trace))
    expect("completion truncated trace", _rejects(
        check_completion, 7, q29, "\n".join(trace.splitlines()[:-1]) + "\n"))
    expect("completion not quadratical", _rejects(
        check_completion, 7, linear(29, 9, 20), trace))

    case = {"choice": 3, "verdict": "completed", "leaves": 0, "replayed": 1,
            "table": q29, "trace": trace}
    report = {"blocks": 7, "cases": [
        {"choice": c, "verdict": "refuted", "leaves": 2, "replayed": 2} for c in (1, 2)]
        + [case, {**case, "choice": 4}]}
    expect("blocks accepts pinned verdicts", not _rejects(check_refute_blocks, report))
    flipped = {**report, "cases": [{**report["cases"][0], "verdict": "completed"}]
               + report["cases"][1:]}
    expect("blocks flipped verdict", _rejects(check_refute_blocks, flipped))
    unreplayed = {**report, "cases": [{**report["cases"][0], "replayed": 1}]
                  + report["cases"][1:]}
    expect("blocks unreplayed leaf", _rejects(check_refute_blocks, unreplayed))
    return missed

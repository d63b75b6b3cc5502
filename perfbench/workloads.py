"""Seeded operation lists for the three workloads.

A workload is a list of Op values plus the input tables they read.  The
same seed gives the same list; the CLI runner (run.py) and the traced
in-process runner (traced.py) both execute it, so the two views measure
the same work.  Tables are built here from closed forms, not with the
package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracles import linear, product_entries, root_count, table_text

WORKLOADS = ("sweep", "tables", "blocks")

# Orders 4n+1 with a quadratical Z_m table; 41 has no block form, the
# others do.  Z_5(a=2) x Z_13(a=3), of order 65, has none either.
QUAD_ORDERS = (37, 41, 53, 61)
HAS_BLOCK_FORM = {37: True, 41: False, 53: True, 61: True, 65: False}

# Coefficients (x, y, z, u) of each output coordinate of the six order-9
# pair products (x, y) * (z, u) over Z_3, as in the paper.
PAIR_PRODUCTS = (
    ((0, 1, 1, 2), (1, 1, 2, 0)),
    ((0, 2, 1, 1), (2, 1, 1, 0)),
    ((1, 1, 0, 2), (1, 0, 2, 1)),
    ((1, 2, 0, 1), (2, 0, 1, 1)),
    ((2, 1, 2, 2), (2, 2, 1, 2)),
    ((2, 2, 2, 1), (1, 2, 2, 2)),
)


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.kind + "".join(f" {k}={v}" for k, v in self.args.items())


def roots(m: int) -> list[int]:
    return [a for a in range(m) if (2 * a * a - 2 * a + 1) % m == 0]


def quadratical(m: int, a: int):
    return linear(m, a, (1 - a) % m)


def relabel(e, order):
    """The table with element order[i] renamed to i."""
    inv = [0] * len(e)
    for new, old in enumerate(order):
        inv[old] = new
    return tuple(tuple(inv[e[x][y]] for y in order) for x in order)


def isotope(n: int, rng: random.Random):
    """x*y = g(f(x) + h(y)) mod n for random bijections f, g, h: a
    quasigroup that is, almost surely, neither idempotent nor medial."""
    f, g, h = (rng.sample(range(n), n) for _ in range(3))
    return tuple(tuple(g[(f[x] + h[y]) % n] for y in range(n)) for x in range(n))


def pair_table(cf, cs):
    def op(p, q):
        x, y = divmod(p, 3)
        z, u = divmod(q, 3)
        return (3 * ((cf[0] * x + cf[1] * y + cf[2] * z + cf[3] * u) % 3)
                + (cs[0] * x + cs[1] * y + cs[2] * z + cs[3] * u) % 3)
    return tuple(tuple(op(p, q) for q in range(9)) for p in range(9))


def admissible_modulus(rng: random.Random, lo: int, hi: int) -> int:
    """A modulus in [lo, hi) with roots, so `solve` prints some."""
    while True:
        m = rng.randrange(lo, hi)
        if root_count(m):
            return m


def plan(workload: str, seed: int):
    """(tables, ops): input tables by name, and the operations in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        # Moduli in four fixed bands keep the O(m) root scans' total steady.
        moduli = [admissible_modulus(rng, lo, lo + 50_000)
                  for lo in (200_000, 400_000, 600_000, 800_000)]
        ops = [
            Op("scan", {"max_m": 1200, "max_k": 40, "discrepancies": True}),
            Op("classify", {"max_m": 500, "discrepancies": True}),
            Op("scan", {"max_m": 5000, "max_k": 40}),
            Op("classify", {"max_m": 5000}),
            *(Op("solve", {"m": m}) for m in moduli),
            Op("checkpoint", {"max_m": 2000, "max_k": 40, "fresh": True}),
            Op("checkpoint", {"max_m": 3000, "max_k": 40, "fresh": False}),
        ]
        return {}, ops

    if workload == "tables":
        tables = {}
        relabelled = set(rng.sample(QUAD_ORDERS, 2))
        for p in QUAD_ORDERS:
            e = quadratical(p, rng.choice(roots(p)))
            tables[f"z{p}"] = relabel(e, rng.sample(range(p), p)) if p in relabelled else e
        z61 = quadratical(61, rng.choice(roots(61)))
        tables["z61-natural"] = z61
        tables["z61-relabelled"] = relabel(z61, rng.sample(range(61), 61))
        tables["z5xz13"] = product_entries(quadratical(5, 2), quadratical(13, 3))
        tables["z65"] = quadratical(65, 24)
        tables["isotope29"] = isotope(29, rng)
        tables["isotope33"] = isotope(33, rng)
        a = rng.randrange(2, 29)
        b = rng.choice([v for v in range(1, 29) if (a + v) % 29 != 1])
        tables["linear29"] = linear(29, a, b)
        for i, coeffs in enumerate(PAIR_PRODUCTS, start=1):
            tables[f"pair{i}"] = pair_table(*coeffs)
        tables["z13a"] = quadratical(13, rng.choice(roots(13)))
        tables["z13b"] = quadratical(13, rng.choice(roots(13)))
        tables["z169"] = product_entries(tables["z13a"], tables["z13b"])
        ops = [
            *(Op("check", {"table": t, "kind": "quadratical"}) for t in ("z37", "z41", "z61")),
            Op("check", {"table": "isotope29", "kind": "isotope"}),
            Op("check", {"table": "isotope33", "kind": "isotope"}),
            Op("check", {"table": "linear29", "kind": "linear"}),
            *(Op("detect", {"table": t}) for t in ("z37", "z41", "z53", "z5xz13")),
            Op("iso", {"left": "z61-natural", "right": "z61-relabelled", "found": True}),
            Op("iso", {"left": "z65", "right": "z5xz13", "found": False}),
            *(Op("order", {"table": f"pair{i}"}) for i in range(1, 7)),
            Op("product", {"left": "z13a", "right": "z13b"}),
            Op("dual", {"table": "z169"}),
        ]
        rng.shuffle(ops)
        return tables, ops

    if workload == "blocks":
        ops = [
            Op("refute_q6"),
            *(Op("complete_qn", {"blocks": n, "choice": c})
              for n in (1, 2, 3, 4) for c in (1, 2, 3, 4)),
            *(Op("refute_blocks", {"blocks": n}) for n in range(5, 13)),
        ]
        rng.shuffle(ops)
        return {}, ops

    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(work, tables: dict) -> dict:
    """Write each table in the package's text format; returns the paths."""
    files = {}
    for name, e in tables.items():
        files[name] = work / f"{name}.txt"
        files[name].write_text(table_text(e))
    return files

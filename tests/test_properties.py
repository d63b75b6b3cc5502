"""Randomized property suites and cross-module invariants.

The suite functions are plain callables (also driven by the acceptance
module); each runs at least a thousand seeded random cases.
"""

import math
import random

from quadlat import (
    CayleyTable,
    check_identity,
    direct_product,
    dual,
    find_isomorphism,
    four_cycles,
    gcd_quasigroup_property_test,
    identity_report,
    is_quadratical,
    k_translatable_check,
    quadratical_over_zm,
    relabel,
    build_idempotent_k_translatable,
)
from quadlat.core import IDENTITY_IDS
from quadlat.translatable import _table_from_first_row

from example_tables import order5_translatable_examples, order9_pair_tables
from conftest import fixture_table

CASES = 1000


def quadratical_test_tables():
    """Every quadratical table the suite constructs (desk scale, n <= 25)."""
    q1 = fixture_table("q1")
    q1d = fixture_table("q1_dual")
    tables = {
        "q1": q1,
        "q1*": q1d,
        "q2": fixture_table("q2"),
        "q3": fixture_table("q3"),
        "q3*": fixture_table("q3_dual"),
        "q4": fixture_table("q4"),
        "q4*": fixture_table("q4_dual"),
        "z5a2": quadratical_over_zm(5, 2),
        "z5a4": quadratical_over_zm(5, 4),
        "z13a3": quadratical_over_zm(13, 3),
        "z13a11": quadratical_over_zm(13, 11),
        "z17a7": quadratical_over_zm(17, 7),
        "z17a11": quadratical_over_zm(17, 11),
        "z25a4": quadratical_over_zm(25, 4),
        "z25a22": quadratical_over_zm(25, 22),
        "q1xq1": direct_product(q1, q1),
        "q1xq1*": direct_product(q1, q1d),
        "q1*xq1": direct_product(q1d, q1),
        "q1*xq1*": direct_product(q1d, q1d),
    }
    for i, t in enumerate(order9_pair_tables(), start=1):
        tables[f"pair{i}"] = t
    return tables


def suite_gcd_criterion(cases=CASES, seed=101):
    """Random first rows: the built shift table is a quasigroup iff the row
    is a permutation and gcd(k, n) = 1."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases):
        n = rng.randint(2, 12)
        k = rng.randint(1, n - 1)
        if rng.random() < 0.8:
            row = list(range(n))
            rng.shuffle(row)
        else:
            row = [rng.randrange(n) for _ in range(n)]
        cancellable, latin = gcd_quasigroup_property_test(row, k)
        assert cancellable == (sorted(row) == list(range(n)))
        if cancellable:
            assert latin == (math.gcd(k, n) == 1)
        else:
            assert not latin
        ran += 1
    return ran


def suite_isomorphism_transport(cases=CASES, seed=202):
    """Relabeling a k-translatable table stays k-translatable under the
    transported ordering."""
    rng = random.Random(seed)
    pool = []
    for n in (5, 7, 9, 11, 13):
        for k in range(2, n):
            if math.gcd(n, k) == 1 and math.gcd(n, k - 1) == 1:
                pool.append((build_idempotent_k_translatable(n, k), k))
    for t in order5_translatable_examples():
        pool.append((t, 4))
    for n in (4, 6, 8):
        pool.append((CayleyTable.from_function(n, lambda x, y: (x + y) % n), n - 1))
    ran = 0
    for _ in range(cases):
        t, k = pool[rng.randrange(len(pool))]
        perm = list(range(t.n))
        rng.shuffle(perm)
        other = relabel(t, perm)
        inv = [0] * t.n
        for new, old in enumerate(perm):
            inv[old] = new
        assert k_translatable_check(other, inv, k)
        ran += 1
    return ran


def suite_commutative_shift(cases=CASES, seed=303):
    """Any table generated by the (n-1)-shift from any first row is
    commutative."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases):
        n = rng.randint(2, 12)
        row = [rng.randrange(n) for _ in range(n)]
        t = _table_from_first_row(row, n - 1)
        e = t.entries
        for x in range(n):
            for y in range(x + 1, n):
                assert e[x][y] == e[y][x]
        ran += 1
    return ran


def suite_unipotent_shift(cases=CASES, seed=404):
    """Any 1-shift table is unipotent, hence never idempotent past order
    one."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases):
        n = rng.randint(2, 12)
        row = [rng.randrange(n) for _ in range(n)]
        t = _table_from_first_row(row, 1)
        e = t.entries
        squares = {e[x][x] for x in range(n)}
        assert len(squares) == 1
        assert check_identity(t, "idempotency") is not None
        ran += 1
    return ran


def suite_identities_on_quadratical_tables(tables=None):
    """Every identity in the catalogue holds on every constructed
    quadratical table, and every such order is 1 mod 4."""
    if tables is None:
        tables = quadratical_test_tables()
    ran = 0
    for name, t in tables.items():
        assert t.n % 4 == 1, name
        report = identity_report(t, IDENTITY_IDS)
        bad = {ident: v for ident, v in report.items() if v is not None}
        assert not bad, (name, bad)
        ran += len(IDENTITY_IDS)
    return ran


def suite_four_cycle_partitions(tables=None, seed=505):
    """Cycles from any base pair are disjoint, cover everything but the
    centre, and close with the diagonal product."""
    if tables is None:
        tables = quadratical_test_tables()
    rng = random.Random(seed)
    ran = 0
    for name, t in tables.items():
        n = t.n
        if n <= 13:
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        else:
            pairs = []
            while len(pairs) < 60:
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    pairs.append((a, b))
        e = t.entries
        for a, b in pairs:
            centre = e[e[a][b]][a]
            cycles = four_cycles(t, a, b)
            assert len(cycles) == (n - 1) // 4, name
            covered = set()
            for x1, x2, x3, x4 in cycles:
                assert e[x1][x2] == e[x2][x3] == e[x3][x4] == e[x4][x1] == centre
                assert e[x1][x3] == x4
                covered.update((x1, x2, x3, x4))
            assert covered == set(range(n)) - {centre}
            ran += 1
    return ran


# -- pytest entry points ------------------------------------------------------

def test_gcd_criterion_suite():
    assert suite_gcd_criterion() >= 1000


def test_isomorphism_transport_suite():
    assert suite_isomorphism_transport() >= 1000


def test_commutative_shift_suite():
    assert suite_commutative_shift() >= 1000


def test_unipotent_shift_suite():
    assert suite_unipotent_shift() >= 1000


def test_identities_suite():
    assert suite_identities_on_quadratical_tables() > 0


def test_four_cycle_suite():
    assert suite_four_cycle_partitions() >= 1000


def test_latin_invariance_under_dual():
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randint(1, 8)
        t = CayleyTable.from_rows(
            [[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        assert (check_identity(t, "latin-square") is None) == (
            check_identity(dual(t), "latin-square") is None)


def test_equivalent_axiom_systems_agree():
    """The four equivalent characterizations of the variety give the same
    verdict on every quasigroup tested: the defining law with strong
    elasticity, bookend and mediality; idempotency, bookend, mediality;
    elasticity, bookend, mediality; and bookend, left distributivity,
    alterability."""

    def conjunctions(t):
        r = identity_report(t, (
            "quadratical-law", "strong-elasticity", "bookend", "mediality",
            "idempotency", "elasticity", "left-distributivity", "alterability"))
        holds = {k: v is None for k, v in r.items()}
        return (
            holds["quadratical-law"] and holds["strong-elasticity"]
            and holds["bookend"] and holds["mediality"],
            holds["idempotency"] and holds["bookend"] and holds["mediality"],
            holds["elasticity"] and holds["bookend"] and holds["mediality"],
            holds["bookend"] and holds["left-distributivity"] and holds["alterability"],
        )

    rng = random.Random(707)
    samples = list(quadratical_test_tables().values())
    # near misses: medial non-idempotent, and idempotent medial non-bookend
    samples.append(CayleyTable.from_function(7, lambda x, y: (x + y) % 7))
    inv2 = pow(2, -1, 7)
    samples.append(CayleyTable.from_function(7, lambda x, y: (x + y) * inv2 % 7))
    base = CayleyTable.from_function(9, lambda x, y: (x + y) % 9)
    for _ in range(40):
        perm = list(range(9))
        rng.shuffle(perm)
        samples.append(relabel(base, perm))
    for t in samples:
        if check_identity(t, "latin-square") is not None:
            continue
        c1, c2, c3, c4 = conjunctions(t)
        assert c1 == c2 == c3 == c4
        assert c2 == is_quadratical(t)


def test_isomorphism_preserves_quadraticality():
    q1 = fixture_table("q1")
    add5 = CayleyTable.from_function(5, lambda x, y: (x + y) % 5)
    shuffled = relabel(add5, [3, 0, 4, 1, 2])
    for t1, t2 in ((q1, relabel(q1, [2, 0, 4, 3, 1])), (add5, shuffled), (q1, add5)):
        phi = find_isomorphism(t1, t2)
        if phi is not None:
            assert is_quadratical(t1) == is_quadratical(t2)

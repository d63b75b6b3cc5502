"""The Toyoda-Bruck fast paths against their exhaustive oracles.

check_identity decides each affine law on a medial quasigroup from the
zero and the generators of its group (Q, +); here every such verdict is
compared with the same law's scan over the whole table.  find_isomorphism
stops after the images that send the first generator to 0 when the second
table is quadratical; here it is compared with a search over every image
tuple."""

import itertools
import random

from quadlat import (
    CayleyTable,
    LinearSpec,
    check_identity,
    direct_product,
    find_isomorphism,
    linear_table,
    quadratical_over_zm,
    relabel,
    solve_quadratic_congruence,
)
from quadlat.cayley import _medial_form
from quadlat.core import IDENTITY_CHECKS, _AFFINE_CHECKS, _generating_sequence

from test_properties import quadratical_test_tables

AFFINE_LAWS = (
    "quadratical-law", "elasticity", "strong-elasticity", "bookend",
    "left-distributivity", "right-distributivity", "weave-left", "weave-right",
    "alterability",
)


def _relabelled(rng, t):
    return relabel(t, rng.sample(range(t.n), t.n))


def _isotope(rng, t):
    """x*y = f(g(x) . h(y)) for random permutations f, g and h."""
    f, g, h = (rng.sample(range(t.n), t.n) for _ in range(3))
    return CayleyTable.from_function(t.n, lambda x, y: f[t.entries[g[x]][h[y]]])


def oracle_tables():
    rng = random.Random(17)
    tables = list(quadratical_test_tables().values())
    # x*y = ax + by + c over Z_m, relabelled; b != 1 - a fails laws
    for _ in range(200):
        m = rng.randrange(2, 40)
        a, b, c = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        tables.append(_relabelled(rng, linear_table(LinearSpec(m, a, b, c))))
    # groups that are not cyclic: Z_3 x Z_3, Z_5 x Z_5, Z_3 x Z_9
    z3 = [linear_table(LinearSpec(3, a, b, 0)) for a, b in ((2, 2), (1, 2), (2, 1))]
    for t1, t2 in itertools.product(z3, repeat=2):
        tables.append(_relabelled(rng, direct_product(t1, t2)))
    tables.append(direct_product(quadratical_over_zm(5, 2), quadratical_over_zm(5, 4)))
    tables.append(_relabelled(rng, tables[-1]))
    tables.append(direct_product(linear_table(LinearSpec(3, 2, 2, 1)),
                                 linear_table(LinearSpec(9, 4, 7, 0))))
    # isotopes, almost surely not medial
    for t in tables[:40]:
        tables.append(_isotope(rng, t))
    return tables


def test_affine_laws_are_the_domain_scans():
    assert {IDENTITY_CHECKS[law] for law in AFFINE_LAWS} == _AFFINE_CHECKS


def test_check_identity_matches_full_scans():
    counts = {"holds": 0, "fails": 0, "not medial": 0}
    for t in oracle_tables():
        medial = _medial_form(t) is not None
        counts["not medial"] += not medial
        for law in AFFINE_LAWS:
            want = IDENTITY_CHECKS[law](t, range(t.n))
            assert check_identity(t, law) == want, (law, t.entries)
            if medial:
                counts["holds" if want is None else "fails"] += 1
    # both outcomes of the domain scan, and the path without it, are exercised
    assert (counts["holds"] >= 200 and counts["fails"] >= 500
            and counts["not medial"] >= 30), counts


def _plain_isomorphism(t1, t2):
    """The first isomorphism in the product order of the images of
    _generating_sequence(t1), trying every image tuple."""
    n = t1.n
    e1, e2 = t1.entries, t2.entries
    gens = _generating_sequence(t1)[0]
    # each other element as a product of two elements placed before it
    placed = list(gens)
    recipe = []
    while len(placed) < n:
        for x, y in itertools.product(placed[:], repeat=2):
            v = e1[x][y]
            if v not in placed:
                placed.append(v)
                recipe.append((v, x, y))
    for images in itertools.product(range(n), repeat=len(gens)):
        phi = [-1] * n
        for g, im in zip(gens, images):
            phi[g] = im
        for v, x, y in recipe:
            phi[v] = e2[phi[x]][phi[y]]
        if len(set(phi)) == n and all(phi[e1[x][y]] == e2[phi[x]][phi[y]]
                                      for x in range(n) for y in range(n)):
            return tuple(phi)
    return None


def _iso_oracle_pairs():
    rng = random.Random(25)
    z5a2, z5a4 = quadratical_over_zm(5, 2), quadratical_over_zm(5, 4)
    # the five order-25 classes, pairwise non-isomorphic
    order25 = [quadratical_over_zm(25, 4), quadratical_over_zm(25, 22),
               direct_product(z5a2, z5a2), direct_product(z5a2, z5a4),
               direct_product(z5a4, z5a4)]
    pairs = list(itertools.permutations(order25, 2))
    pairs += [(t, _relabelled(rng, t)) for t in order25]
    z65 = quadratical_over_zm(65, 24)
    z5xz13 = direct_product(z5a2, quadratical_over_zm(13, 3))
    pairs += [(z65, z5xz13), (z5xz13, z65), (z65, _relabelled(rng, z65))]
    # relabelled quadratical tables, and against the tables of their other
    # roots, up to order 101
    for m in range(5, 102, 4):
        roots = solve_quadratic_congruence(m)
        if roots:
            t = quadratical_over_zm(m, roots[0])
            pairs += [(_relabelled(rng, t), _relabelled(rng, quadratical_over_zm(m, a)))
                      for a in roots[:3]]
    # relabelled linear tables: generating sequences of more than two
    # elements, images that fail, and pairs that are not isomorphic
    while len(pairs) < 200:
        m = rng.randrange(2, 12)
        t1 = linear_table(LinearSpec(m, *(rng.randrange(m) for _ in range(3))))
        if m ** len(_generating_sequence(t1)[0]) > 2000:
            continue
        t2 = linear_table(LinearSpec(m, *(rng.randrange(m) for _ in range(3))))
        pairs += [(t1, _relabelled(rng, t1)), (t1, _relabelled(rng, t2))]
    return pairs


def test_find_isomorphism_matches_all_images_search():
    found = {True: 0, False: 0}
    leading = 0
    more_gens = 0
    for i, (t1, t2) in enumerate(_iso_oracle_pairs()):
        want = _plain_isomorphism(t1, t2)
        assert find_isomorphism(t1, t2) == want, (t1.entries, t2.entries)
        found[want is not None] += 1
        # the first 28 pairs: the order-25 classes and order 65
        leading += i < 28 and want is not None
        more_gens += len(_generating_sequence(t1)[0]) > 2
    assert leading == 6
    assert found == {True: 95, False: 105} and more_gens == 30, (found, more_gens)

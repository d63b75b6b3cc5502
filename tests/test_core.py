import itertools
import random
import time

import pytest

from quadlat import (
    CayleyTable,
    check_identity,
    direct_product,
    dual,
    find_isomorphism,
    four_cycles,
    generated_subgroupoid,
    identity_report,
    is_quadratical,
    linear_table,
    LinearSpec,
    quadratical_over_zm,
    relabel,
    SearchCapExceeded,
    solve_quadratic_congruence,
    two_generation_report,
)
from quadlat.cayley import _generators, _medial_form
from quadlat.core import (
    _AFFINE_CHECKS,
    BASIC_IDENTITY_IDS,
    IDENTITY_CHECKS,
    IDENTITY_IDS,
    _closure,
)


def additive_table(n):
    return CayleyTable.from_function(n, lambda x, y: (x + y) % n)


def test_table_validation():
    with pytest.raises(ValueError):
        CayleyTable.from_rows([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        CayleyTable.from_rows([[0, 1], [1, 0]], labels=["a"])
    with pytest.raises(ValueError):
        CayleyTable.from_rows([[0, 1], [1, 0]], labels=["a", "a"])


def test_list_rows_and_labels_are_stored_as_tuples():
    # the table copies list rows and labels, so it cannot be changed through
    # them, and it hashes and compares as the tuple-built table
    rows, labels = [[0, 1], [1, 0]], ["e", "g"]
    t = CayleyTable(2, rows, labels)
    rows[0][1] = 7
    labels[0] = "x"
    want = CayleyTable(2, ((0, 1), (1, 0)), ("e", "g"))
    assert (t.entries, t.labels) == (((0, 1), (1, 0)), ("e", "g"))
    assert t == want and hash(t) == hash(want)
    assert not is_quadratical(t)
    with pytest.raises(TypeError):
        t.entries[0][1] = 7


@pytest.mark.parametrize("rows, message", [
    (((0, 1.0), (1, 0)), r"entry \[0\]\[1\] = 1.0 is not an int$"),
    (((0, 1), (True, 0)), r"entry \[1\]\[0\] = True is not an int$"),
    (((0, 1), (1, "0")), r"entry \[1\]\[1\] = '0' is not an int$"),
    (((0, 1), (1, 2)), r"entry \[1\]\[1\] = 2 out of range 0..1$"),
    (((0, -1), (1, 0.5)), r"entry \[0\]\[1\] = -1 out of range 0..1$"),
    (((0, 1), (1,)), r"row 1 has 1 entries, expected 2$"),
    (((0, 1),), r"expected 2 rows, got 1$"),
])
def test_constructor_names_the_first_bad_entry(rows, message):
    with pytest.raises(ValueError, match=message):
        CayleyTable(2, rows)


def test_constructor_refuses_the_first_bad_entry_of_a_row():
    # the first bad entry of the row, whatever else is wrong after it
    with pytest.raises(ValueError, match=r"entry \[0\]\[1\] = 1.5 is not an int$"):
        CayleyTable(3, ((0, 1.5, 9), (0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError, match="order must be a positive int"):
        CayleyTable(2.0, ((0, 1), (1, 0)))


def test_from_rows_converts_nothing():
    # no truncation of floats and no parsing of strings: only ints are entries
    for rows in ([[0, 1.7], [1.2, 1]], [["0", "1"], ["1", "0"]], [[0, 1], [1, 0.0]]):
        with pytest.raises(ValueError, match="is not an int"):
            CayleyTable.from_rows(rows)


def test_labels_must_be_strings():
    for labels in ([1, 2], ["a", None], (b"a", b"b")):
        with pytest.raises(ValueError, match="is not a str"):
            CayleyTable(2, ((0, 1), (1, 0)), labels)


def test_identity_ids_closed():
    assert len(IDENTITY_IDS) == 15
    assert set(BASIC_IDENTITY_IDS) < set(IDENTITY_IDS)
    with pytest.raises(ValueError):
        check_identity(additive_table(3), "associativity")


def test_order_one_holds_everything():
    t = CayleyTable.from_rows([[0]])
    for ident in IDENTITY_IDS:
        assert check_identity(t, ident) is None


def test_additive_z5_bookend_counterexample():
    t = additive_table(5)
    # (1+0)+(0+1) = 2 != 0, and (0,0) satisfies the law, so (0,1) is least
    assert check_identity(t, "bookend") == (0, 1)
    assert check_identity(t, "idempotency") == (1,)
    assert check_identity(t, "latin-square") is None


def test_counterexamples_replay():
    t = additive_table(5)
    e = t.entries
    x, y = check_identity(t, "bookend")
    assert e[e[y][x]][e[x][y]] != x
    q = quadratical_over_zm(5, 2)
    rep = identity_report(q)
    assert all(v is None for v in rep.values())


def test_mediality_on_table_one_fixture(q2):
    assert check_identity(q2, "mediality") is None
    assert check_identity(q2, "bookend") is None
    assert is_quadratical(q2)


def test_is_quadratical_examples(q2):
    assert not is_quadratical(additive_table(5))
    assert is_quadratical(quadratical_over_zm(5, 2))


def test_is_quadratical_cache_is_bounded():
    bound = is_quadratical.cache_info().maxsize
    assert bound is not None
    is_quadratical.cache_clear()
    for n in range(2, 3 * bound):
        assert not is_quadratical(additive_table(n))
        assert is_quadratical.cache_info().currsize <= bound
    # an evicted table is checked again, with the same answer
    assert is_quadratical(quadratical_over_zm(5, 2))
    assert is_quadratical.cache_info().currsize == bound


def test_structural_checks_at_scale():
    # 1025 = 5^2 * 41 is admissible; above order 256 mediality used to fall
    # back to the O(n^4) scan
    n = 1025
    rng = random.Random(1025)
    t = relabel(quadratical_over_zm(n, solve_quadratic_congruence(n)[0]),
                rng.sample(range(n), n))
    is_quadratical.cache_clear()
    assert is_quadratical(t)
    rows = [list(r) for r in t.entries]
    rows[3][5] = (rows[3][5] + 1) % n
    assert not is_quadratical(CayleyTable.from_rows(rows))
    # swapping two columns keeps the table latin but makes it not medial
    rows = [list(r) for r in t.entries]
    for r in rows:
        r[0], r[1] = r[1], r[0]
    assert _medial_form(CayleyTable.from_rows(rows)) is None
    z101 = quadratical_over_zm(101, solve_quadratic_congruence(101)[0])
    t0 = time.monotonic()
    report = identity_report(z101)
    assert time.monotonic() - t0 < 1.0
    assert all(v is None for v in report.values())


def test_generators_stop_at_the_limit():
    # the limit is floor(log2 n) + 1: 4 for n = 8 and for n = 12
    # Z_12: 0 generates {0}, then 1 generates the rest
    z12 = [tuple((x + y) % 12 for y in range(12)) for x in range(12)]
    assert _generators(z12, 4) == [0, 1]
    # x+y = max(x, y): every subset is closed, so greedy takes every element
    top = [tuple(max(x, y) for y in range(8)) for x in range(8)]
    assert _generators(top, 8) == list(range(8))
    assert _generators(top, 4) is None


def test_dual_involution_and_linear_dual():
    t = quadratical_over_zm(5, 2)
    assert dual(dual(t)).entries == t.entries
    assert dual(t).entries == linear_table(LinearSpec(5, 4, 2)).entries
    comm = additive_table(6)
    assert dual(comm).entries == comm.entries


def test_dual_preserves_latin():
    t = CayleyTable.from_rows([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert (check_identity(t, "latin-square") is None) == (
        check_identity(dual(t), "latin-square") is None
    )


def test_q2_self_dual_fixture(q2):
    assert find_isomorphism(q2, dual(q2)) is not None


def test_direct_product_quadratical(q1):
    p = direct_product(q1, q1)
    assert p.n == 25
    assert is_quadratical(p)


def test_direct_product_identity_factor(q1):
    one = CayleyTable.from_rows([[0]])
    p = direct_product(q1, one)
    assert p.entries == q1.entries


def test_dual_of_product_is_product_of_duals(q1, q1_dual):
    p = direct_product(q1, q1)
    # the dual fixture equals dual(q1) entrywise
    assert q1_dual.entries == dual(q1).entries
    assert dual(p).entries == direct_product(dual(q1), dual(q1)).entries


def test_generated_subgroupoid(q1):
    # a and b generate everything; an idempotent alone generates itself
    assert generated_subgroupoid(q1, {0, 3}) == frozenset(range(5))
    assert generated_subgroupoid(q1, {2}) == frozenset({2})
    with pytest.raises(ValueError):
        generated_subgroupoid(q1, set())
    for seed in (-1, 5):
        with pytest.raises(ValueError, match=f"seed {seed} out of range"):
            generated_subgroupoid(q1, {0, seed})


def test_two_generation(q1, q2):
    assert two_generation_report(q1).all_pairs_generate
    assert two_generation_report(q2).all_pairs_generate
    one = CayleyTable.from_rows([[0]])
    assert two_generation_report(one).all_pairs_generate


def test_two_generation_matrix_matches_closures(q1):
    # every ordered pair, mirrored ones included, against its own closure
    rng = random.Random(61)
    tables = [quadratical_over_zm(m, solve_quadratic_congruence(m)[0]) for m in (5, 13, 17, 25)]
    tables.append(direct_product(q1, q1))
    tables += [linear_table(LinearSpec(m, rng.randrange(m), rng.randrange(m), rng.randrange(m)))
               for m in (4, 6, 8, 9, 10, 12) for _ in range(3)]
    tables += [CayleyTable.from_rows([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
               for n in range(1, 9) for _ in range(3)]
    entries = set()
    for t in tables:
        full = frozenset(range(t.n))
        want = tuple(tuple(generated_subgroupoid(t, {x, y}) == full for y in range(t.n))
                     for x in range(t.n))
        rep = two_generation_report(t)
        assert rep.matrix == want, t.entries
        distinct = [want[x][y] for x in range(t.n) for y in range(t.n) if x != y]
        assert (rep.all_pairs_generate, rep.some_pair_generates) == (all(distinct), any(distinct))
        entries.update(distinct)
    assert entries == {True, False}


def test_product_not_two_generated(q1, q1_dual):
    rep = two_generation_report(direct_product(q1, q1))
    assert not rep.all_pairs_generate
    # cycle members generate only an order-5 subtable
    p = direct_product(q1, q1)
    assert len(generated_subgroupoid(p, {0, 4})) == 5
    # the mixed product is two-generated: (a, ba) with (ab, b)
    mixed = direct_product(q1, q1_dual)
    full = frozenset(range(25))
    assert generated_subgroupoid(mixed, {0 * 5 + 1, 1 * 5 + 3}) == full


def test_four_cycles_q1(q1):
    # single cycle (a, ba, b, ab) around the centre
    assert four_cycles(q1, 0, 3) == [(0, 2, 3, 1)]


def test_four_cycles_q2(q2):
    cycles = four_cycles(q2, 0, 3)
    assert len(cycles) == 2
    assert set(cycles[0]) == {0, 1, 2, 3}
    assert set(cycles[1]) == {5, 6, 7, 8}


def test_four_cycles_product(q1):
    p = direct_product(q1, q1)
    # base pair with centre (a, b)
    cycles = four_cycles(p, 15, 11)
    assert cycles == [
        (0, 4, 1, 2),
        (5, 19, 21, 12),
        (6, 17, 20, 14),
        (7, 15, 24, 11),
        (8, 18, 23, 13),
        (9, 16, 22, 10),
    ]


def test_four_cycles_invariants(q2):
    e = q2.entries
    centre = e[e[0][3]][0]
    cycles = four_cycles(q2, 0, 3)
    covered = set()
    for x1, x2, x3, x4 in cycles:
        assert e[x1][x2] == e[x2][x3] == e[x3][x4] == e[x4][x1] == centre
        assert e[x1][x3] == x4
        covered.update((x1, x2, x3, x4))
    assert covered == set(range(9)) - {centre}


def test_seeds_and_base_must_be_ints(q1):
    # True and 1.0 equal 1, and were once taken as the element 1
    z13 = quadratical_over_zm(13, 3)
    for seeds in ([True], [0, 1.0], [1, True]):
        with pytest.raises(ValueError, match="is not an int"):
            generated_subgroupoid(q1, seeds)
    for a, b in ((True, 2), (0, 2.0)):
        with pytest.raises(ValueError, match="base elements must be ints"):
            four_cycles(z13, a, b)


def test_four_cycles_rejects(q2):
    with pytest.raises(ValueError):
        four_cycles(q2, 1, 1)
    t = additive_table(5)
    with pytest.raises(ValueError):
        four_cycles(t, 0, 1)
    # a negative base must not wrap round to the last element
    z13 = quadratical_over_zm(13, 3)
    for a, b in ((-1, 2), (0, 13)):
        with pytest.raises(ValueError, match="base elements out of range"):
            four_cycles(z13, a, b)


def test_find_isomorphism_identity(q2):
    assert find_isomorphism(q2, q2) == tuple(range(9))


def test_find_isomorphism_q3_linear(q3):
    z = quadratical_over_zm(13, 11)
    phi = find_isomorphism(q3, z)
    assert phi is not None
    e, f = q3.entries, z.entries
    for x in range(13):
        for y in range(13):
            assert phi[e[x][y]] == f[phi[x]][phi[y]]


def test_find_isomorphism_none_different_structure(q1):
    assert find_isomorphism(q1, additive_table(5)) is None
    with pytest.raises(ValueError):
        find_isomorphism(q1, additive_table(6))


def test_find_isomorphism_relabeling(q2):
    perm = [3, 5, 0, 8, 1, 2, 7, 4, 6]
    other = relabel(q2, perm)
    phi = find_isomorphism(q2, other)
    assert phi is not None
    e, f = q2.entries, other.entries
    for x, y in itertools.product(range(9), repeat=2):
        assert phi[e[x][y]] == f[phi[x]][phi[y]]


def test_find_isomorphism_search_cap():
    # every subset of a projection table is closed, so all eight elements
    # are generators and the search faces 8^8 images; it stops at the cap
    left = CayleyTable.from_function(8, lambda x, y: x)
    right = CayleyTable.from_function(8, lambda x, y: y)
    with pytest.raises(SearchCapExceeded):
        find_isomorphism(left, right)


def test_mediality_scan_cap():
    # a projection x*y = x is medial but not a quasigroup; up to order 256
    # the byte-row prefilter clears every pair, above it the plain scan
    # would check n^4 quadruples and stops at the cap instead
    assert check_identity(CayleyTable.from_function(200, lambda x, y: x), "mediality") is None
    with pytest.raises(SearchCapExceeded):
        check_identity(CayleyTable.from_function(257, lambda x, y: x), "mediality")


def test_quadratical_order_congruence(q1, q2, q3, q4):
    for t in (q1, q2, q3, q4):
        assert is_quadratical(t)
        assert t.n % 4 == 1


def _brute_cancellation(e, n, by_rows):
    # the least (x, y, z), y < z, with x*y = x*z (rows) or y*x = z*x (columns)
    for x in range(n):
        for z in range(n):
            for y in range(z):
                if (e[x][y] == e[x][z]) if by_rows else (e[y][x] == e[z][x]):
                    return (x, y, z)
    return None


def _brute_solvability(e, n):
    for a in range(n):
        for b in range(n):
            if all(e[a][y] != b for y in range(n)):
                return (a, b)
    return None


def _brute_alterability(e, n):
    # x*y = z*w if and only if y*z = w*x, every quadruple in lex order
    for x, y, z, w in itertools.product(range(n), repeat=4):
        if (e[x][y] == e[z][w]) != (e[y][z] == e[w][x]):
            return (x, y, z, w)
    return None


def test_latin_scans_match_brute_force():
    """The four latin-derived identities pass over each row or column
    that is a permutation by its set size, and alterability compares
    bitmask sets; their counterexamples must be those of a plain scan of
    every cell or quadruple."""
    rng = random.Random(19)
    tables = []
    for n in (1, 2, 3, 4, 5, 7, 9, 12):
        for _ in range(6):
            # a latin square: a cyclic one with rows, columns and symbols permuted
            rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
            latin = [[syms[(rows[x] + cols[y]) % n] for y in range(n)] for x in range(n)]
            tables.append(latin)
            changed = [row[:] for row in latin]
            changed[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            tables.append(changed)
            tables.append([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    seen = set()
    for rows in tables:
        t = CayleyTable.from_rows(rows)
        e, n = t.entries, t.n
        left = _brute_cancellation(e, n, True)
        right = _brute_cancellation(e, n, False)
        want = {
            "left-cancellation": left,
            "right-cancellation": right,
            "right-solvability": _brute_solvability(e, n),
            "latin-square": left if left is not None else right,
            "alterability": _brute_alterability(e, n),
        }
        for ident, verdict in want.items():
            assert check_identity(t, ident) == verdict, (rows, ident)
            seen.add((ident, verdict is None))
    assert len(seen) == 10  # every identity both holds and fails somewhere


# Each equational law as the tuple of its sides, to be equal, and its
# variable count; the sides are written from the defining equations, not
# from the package's scans.
EQUATIONS = {
    "idempotency": (1, lambda e, x: (e[x][x], x)),
    "elasticity": (2, lambda e, x, y: (e[x][e[y][x]], e[e[x][y]][x])),
    "strong-elasticity": (2, lambda e, x, y: (e[x][e[y][x]], e[e[x][y]][x], e[e[y][x]][y])),
    "bookend": (2, lambda e, x, y: (e[e[y][x]][e[x][y]], x)),
    "left-distributivity": (3, lambda e, x, y, z: (e[x][e[y][z]], e[e[x][y]][e[x][z]])),
    "right-distributivity": (3, lambda e, x, y, z: (e[e[x][y]][z], e[e[x][z]][e[y][z]])),
    "mediality": (4, lambda e, x, y, z, w: (e[e[x][y]][e[z][w]], e[e[x][z]][e[y][w]])),
    "weave-left": (2, lambda e, x, y: (e[x][e[y][e[y][x]]], e[e[e[x][y]][x]][y])),
    "weave-right": (2, lambda e, x, y: (e[e[e[x][y]][y]][x], e[y][e[x][e[y][x]]])),
    "quadratical-law": (3, lambda e, x, y, z: (e[e[x][y]][x], e[e[z][x]][e[y][z]])),
}


def _brute_equation(e, n, law):
    # the least variable tuple, in lex order, at which the sides differ
    arity, sides = EQUATIONS[law]
    for args in itertools.product(range(n), repeat=arity):
        if len(set(sides(e, *args))) > 1:
            return args
    return None


def test_equational_laws_match_brute_force():
    """Each law's scan, over the whole table and through check_identity,
    against a plain scan of its defining equation."""
    rng = random.Random(36)
    tables = []
    for n in range(1, 8):
        tables += [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(6)]
        tables += [[[x] * n for x in range(n)], [list(range(n))] * n, [[0] * n] * n,
                   [[(x + y) % n for y in range(n)] for x in range(n)],
                   [[(2 * x - y) % n for y in range(n)] for x in range(n)]]
    seen = set()
    for rows in tables:
        t = CayleyTable.from_rows(rows)
        for law in EQUATIONS:
            want = _brute_equation(t.entries, t.n, law)
            scan = IDENTITY_CHECKS[law]
            assert check_identity(t, law) == want, (rows, law)
            assert (scan(t) if law in ("idempotency", "mediality")
                    else scan(t, range(t.n))) == want, (rows, law)
            if t.n > 1 or want is not None:
                seen.add((law, want is None))
    # every law holds on a table of order 2 or more, and fails somewhere
    assert len(seen) == 20


def _brute_domain_scan(e, n, law, dom):
    # the least tuple, in lex order, with the leading variables over dom and
    # the last over all of Q at which the law fails
    if law == "alterability":
        for x, y, z, w in itertools.product(dom, dom, dom, range(n)):
            if (e[x][y] == e[z][w]) != (e[y][z] == e[w][x]):
                return (x, y, z, w)
        return None
    arity, sides = EQUATIONS[law]
    for args in itertools.product(*[dom] * (arity - 1), range(n)):
        if len(set(sides(e, *args))) > 1:
            return args
    return None


def test_domain_scans_match_brute_force():
    """Each law that takes a domain, scanned over a random proper sorted
    sub-domain, against a plain scan of its defining equation over the
    same variable ranges: a counterexample names elements of the table,
    not positions in the domain."""
    rng = random.Random(37)
    laws = [law for law, scan in IDENTITY_CHECKS.items() if scan in _AFFINE_CHECKS]
    assert len(laws) == 9
    seen = set()
    for _ in range(40):
        n = rng.randint(2, 7)
        # random tables, latin squares and tables that satisfy some laws
        p, q, r = (rng.sample(range(n), n) for _ in range(3))
        rows = rng.choice([
            [[rng.randrange(n) for _ in range(n)] for _ in range(n)],
            [[r[(p[x] + q[y]) % n] for y in range(n)] for x in range(n)],
            [[x] * n for x in range(n)], [list(range(n))] * n, [[0] * n] * n,
            [[(2 * x - y) % n for y in range(n)] for x in range(n)]])
        t = CayleyTable.from_rows(rows)
        dom = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        for law in laws:
            want = _brute_domain_scan(t.entries, n, law, dom)
            assert IDENTITY_CHECKS[law](t, dom) == want, (rows, law, dom)
            seen.add((law, want is None))
            # the position in dom of a counterexample's domain variables
            # differs from the element somewhere
            if want is not None and want[:-1] != tuple(map(dom.index, want[:-1])):
                seen.add((law, "moved"))
    one = CayleyTable.from_rows([[0]])
    for law in laws:
        assert IDENTITY_CHECKS[law](one, [0]) is None
    every = {(law, outcome) for law in laws for outcome in (True, False, "moved")}
    assert seen == every, every - seen


def test_closure_recipe_builds_each_element_from_earlier_ones():
    rng = random.Random(30)
    tables = [quadratical_over_zm(13, 3), direct_product(quadratical_over_zm(5, 2),
                                                         quadratical_over_zm(5, 4)),
              linear_table(LinearSpec(12, 2, 0, 5))]
    tables += [CayleyTable.from_rows([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
               for n in (1, 2, 6, 9)]
    for t in tables:
        e = t.entries
        for k in (1, 2, 3):
            seeds = rng.sample(range(t.n), min(k, t.n))
            members, recipe = _closure(e, seeds)
            assert set(members) == generated_subgroupoid(t, seeds)
            assert len(members) == len(set(members))
            assert members[:len(seeds)] == seeds
            assert [v for v, _, _ in recipe] == members[len(seeds):]
            for i, (v, x, y) in enumerate(recipe, len(seeds)):
                assert e[x][y] == v
                assert x in members[:i] and y in members[:i]


def test_table_hash_is_kept():
    import copy
    import pickle

    t = relabel(quadratical_over_zm(13, 3), [3, 1, 4, 0, 5, 9, 2, 6, 8, 7, 12, 10, 11])
    labelled = CayleyTable.from_rows(t.entries, [f"e{i}" for i in range(t.n)])
    for table in (t, labelled):
        want = hash((table.n, table.entries, table.labels))
        assert hash(table) == want
        assert hash(table) == want  # the kept value
        for twin in (copy.copy(table), copy.deepcopy(table),
                     pickle.loads(pickle.dumps(table))):
            assert twin == table
            assert hash(twin) == want
    assert t != labelled
    with pytest.raises(AttributeError):
        t._hash = 0


def test_table_fields_stay_and_compare_only_with_tables():
    t = quadratical_over_zm(5, 2)
    for field in ("n", "entries", "labels", "_hash"):
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(t, field)
    # a table is equal to no other kind of value, even one with its rows
    assert t.__eq__(t.entries) is NotImplemented
    assert t != t.entries and t != 5 and t is not None
    assert repr(t) == "CayleyTable(n=5)"

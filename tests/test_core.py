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
from quadlat.core import BASIC_IDENTITY_IDS, IDENTITY_IDS


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


def test_two_generation(q1, q2):
    assert two_generation_report(q1).all_pairs_generate
    assert two_generation_report(q2).all_pairs_generate
    one = CayleyTable.from_rows([[0]])
    assert two_generation_report(one).all_pairs_generate


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


def test_four_cycles_rejects(q2):
    with pytest.raises(ValueError):
        four_cycles(q2, 1, 1)
    t = additive_table(5)
    with pytest.raises(ValueError):
        four_cycles(t, 0, 1)


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


def test_latin_scans_match_brute_force():
    """The four latin-derived identities pass over each row or column
    that is a permutation by its set size; their counterexamples must be
    those of a plain scan of every cell."""
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
        }
        for ident, verdict in want.items():
            assert check_identity(t, ident) == verdict, (rows, ident)
            seen.add((ident, verdict is None))
    assert len(seen) == 8  # every identity both holds and fails somewhere


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

"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` gives one line per criterion.
Stated runtime bounds are asserted with a monotonic clock.
"""

import random
import time

from quadlat import (
    Completed,
    Contradiction,
    all_valid_k,
    check_identity,
    classify,
    complete_qn,
    detect_form,
    direct_product,
    dual,
    feasible_k_idempotent_quadratical,
    find_isomorphism,
    find_translatable_ordering,
    identity_report,
    idempotent_first_row,
    is_quadratical,
    quadratical_over_zm,
    refute_q6,
    relabel,
    replay_trace,
    scan_k_table,
    solve_quadratic_congruence,
    translatability_k_quadratical,
)
from quadlat.refdata import REFERENCE_CLASSIFY_ROWS, REFERENCE_SCAN_ROWS
from quadlat.sweep import classify_discrepancies, scan_discrepancies

from example_tables import order5_translatable_examples, pair_product_table
import test_properties
from conftest import block_fixture_to_canonical, fixture_table


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_scan_reproduces_published_rows():
    t0 = time.monotonic()
    rows = scan_k_table(1200, 40)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"scan took {elapsed:.2f}s"
    # expected set: the published rows within bounds, with each cell
    # recomputed from the defining congruences (the formulas outrank the
    # transcription)
    expected = set()
    for k, m, a, b in REFERENCE_SCAN_ROWS:
        if m > 1200:
            continue
        assert (2 * a * a - 2 * a + 1) % m == 0, (m, a)
        expected.add((translatability_k_quadratical(m, a), m, a, (1 - a) % m))
    got = {(r.k, r.m, r.a, r.b) for r in rows}
    assert got == expected
    # the discrepancy report lists exactly the transcription errors, each
    # justified by the shift formula
    ds = scan_discrepancies(rows, 1200, 40)
    assert {(d.m, d.a, d.field) for d in ds} == {(13, 11, "b"), (685, 667, "b")}
    for d in ds:
        assert d.computed_value == (1 - d.a) % d.m
    _ok(1, f"scan --max-m 1200 --max-k 40 exact in {elapsed:.2f}s, "
           f"{len(ds)} justified transcription discrepancies")


def test_criterion_02_classification_below_500():
    rows = classify(500)
    got = [(r.m, r.a, r.b, r.k) for r in rows]
    assert got == sorted(REFERENCE_CLASSIFY_ROWS)
    assert classify_discrepancies(rows, 500) == []
    per_m = {}
    for m, *_ in got:
        per_m[m] = per_m.get(m, 0) + 1
    doubles = sorted(m for m, c in per_m.items() if c == 2)
    assert doubles == [65, 85, 145, 185, 205, 221, 265, 305, 325, 365,
                       377, 425, 445, 481, 485, 493]
    assert all(c <= 2 for c in per_m.values())
    _ok(2, f"classify --max-m 500 exact ({len(got)} rows, "
           f"{len(doubles)} double moduli)")


def test_criterion_03_shift_pairs_sum_to_modulus():
    checked = 0
    for m in range(5, 1201):
        for a in solve_quadratic_congruence(m):
            k1 = translatability_k_quadratical(m, a)
            k2 = translatability_k_quadratical(m, (1 - a) % m)
            assert k1 + k2 == m, (m, a)
            checked += 1
    _ok(3, f"k(a) + k(1-a) = m for all {checked} enumerated (m, a), m <= 1200")


def test_criterion_04_order_nine():
    t = pair_product_table(1)
    assert is_quadratical(t)
    form = detect_form(t)
    assert form is not None and form[0] == 2
    assert find_isomorphism(t, dual(t)) is not None
    t0 = time.monotonic()
    assert find_translatable_ordering(t) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"ordering search took {elapsed:.2f}s"
    _ok(4, f"order-9 pair table: quadratical, two blocks, self-dual, "
           f"no translatable ordering (search {elapsed:.2f}s)")


def test_criterion_05_block_completions():
    q2 = fixture_table("q2")
    q3 = fixture_table("q3")
    q4 = fixture_table("q4")
    out22 = complete_qn(2, 2)
    assert isinstance(out22, Completed)
    assert out22.table.entries == block_fixture_to_canonical(q2).entries
    out31 = complete_qn(3, 1)
    assert isinstance(out31, Completed)
    assert out31.table.entries == block_fixture_to_canonical(q3).entries
    out42 = complete_qn(4, 2)
    assert isinstance(out42, Completed)
    assert find_isomorphism(out42.table, block_fixture_to_canonical(q4)) is not None
    for blocks, choice in ((2, 4), (3, 3), (3, 4)):
        out = complete_qn(blocks, choice)
        assert isinstance(out, Contradiction), (blocks, choice)
        replay_trace(blocks, choice, out.trace, out.conflict)
    assert find_isomorphism(out31.table, quadratical_over_zm(13, 11)) is not None
    assert find_isomorphism(out42.table, quadratical_over_zm(17, 11)) is not None
    _ok(5, "two-, three- and four-block completions match the published "
           "tables; rejected choices yield replayable contradictions")


def test_criterion_06_no_six_block_form():
    t0 = time.monotonic()
    report = refute_q6()
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"refutation took {elapsed:.2f}s"
    assert report.ok
    for case in report.cases:
        assert case.refuted and case.max_depth_used <= 3
        for leaf in case.leaves:
            replay_trace(6, case.choice, leaf.trace, leaf.conflict)
    _ok(6, f"all four six-block choices refuted in {elapsed:.2f}s "
           f"(split depth <= {max(c.max_depth_used for c in report.cases)})")


def test_criterion_07_feasible_shift_sets():
    assert feasible_k_idempotent_quadratical(25) == {7, 18}
    assert feasible_k_idempotent_quadratical(9) == set()
    rows = scan_k_table(41, 41)
    implied = {}
    for r in rows:
        implied.setdefault(r.m, set()).add(r.k)
    for n in (5, 13, 17, 29, 37, 41):
        assert feasible_k_idempotent_quadratical(n) == implied[n], n
    _ok(7, "idempotent shift sets: {7,18} at order 25, empty at 9, and "
           "matching the sweep at 5, 13, 17, 29, 37, 41")


def test_criterion_08_property_suites():
    counts = {
        "gcd": test_properties.suite_gcd_criterion(),
        "transport": test_properties.suite_isomorphism_transport(),
        "commutative": test_properties.suite_commutative_shift(),
        "unipotent": test_properties.suite_unipotent_shift(),
    }
    assert all(c >= 1000 for c in counts.values()), counts
    tables = test_properties.quadratical_test_tables()
    idents = test_properties.suite_identities_on_quadratical_tables(tables)
    cycles = test_properties.suite_four_cycle_partitions(tables)
    assert cycles >= 1000
    _ok(8, f"property suites: {counts} random cases, {idents} identity "
           f"checks, {cycles} cycle partitions")


def test_criterion_09_example_fixtures():
    for t in order5_translatable_examples():
        assert check_identity(t, "latin-square") is None
        assert all_valid_k(t) == {4}
        e = t.entries
        non_assoc = any(
            e[e[x][y]][z] != e[x][e[y][z]]
            for x in range(5) for y in range(5) for z in range(5)
        )
        assert non_assoc
    assert idempotent_first_row(7, 3) == [0, 3, 6, 2, 5, 1, 4]
    assert idempotent_first_row(7, 4) == [0, 2, 4, 6, 1, 3, 5]
    q1 = fixture_table("q1")
    q1d = fixture_table("q1_dual")
    assert all_valid_k(q1) == {3}
    assert all_valid_k(q1d) == {2}
    # reordered presentations have no natural sequence but a search finds one
    q1p = relabel(q1, [0, 3, 1, 2, 4])
    assert all_valid_k(q1p) == set()
    found = find_translatable_ordering(q1p)
    assert found is not None and found[1] == 3
    found_d = find_translatable_ordering(relabel(q1d, [0, 3, 1, 2, 4]))
    assert found_d is not None and found_d[1] == 2
    _ok(9, "order-5 shift examples, first-row forms and the order-5 "
           "orderings all reproduce")


def test_criterion_10_order25_tables_not_products():
    q1 = fixture_table("q1")
    q1d = fixture_table("q1_dual")
    products = [
        direct_product(q1, q1),
        direct_product(q1, q1d),
        direct_product(q1d, q1),
        direct_product(q1d, q1d),
    ]
    for m_table in (quadratical_over_zm(25, 22), quadratical_over_zm(25, 4)):
        for p in products:
            assert find_isomorphism(m_table, p) is None
    # the separating law: x(xy) = yx holds throughout the first factor of
    # the first two products, but forces x = y in the modulus-25 tables
    z5a4 = quadratical_over_zm(5, 4)
    e = z5a4.entries
    assert all(e[x][e[x][y]] == e[y][x] for x in range(5) for y in range(5))
    assert find_isomorphism(q1, z5a4) is not None
    z25 = quadratical_over_zm(25, 22)
    e = z25.entries
    for x in range(25):
        for y in range(25):
            if e[x][e[x][y]] == e[y][x]:
                assert x == y
    for p in products[:2]:
        ep = p.entries
        for x in range(5):
            for y in range(5):
                xb, yb = 5 * x, 5 * y  # pairs (x, a), (y, a) with a the first element
                assert ep[xb][ep[xb][yb]] == ep[yb][xb]
    # and dually: (yx)x = xy holds in the other factor but not mod 25
    z5a2 = quadratical_over_zm(5, 2)
    e = z5a2.entries
    assert all(e[e[y][x]][x] == e[x][y] for x in range(5) for y in range(5))
    z25d = quadratical_over_zm(25, 4)
    e = z25d.entries
    for x in range(25):
        for y in range(25):
            if e[e[y][x]][x] == e[x][y]:
                assert x == y
    _ok(10, "neither modulus-25 table is isomorphic to any order-25 "
            "product, and the separating identity behaves as published")


def test_runtime_identities_at_order_257():
    # every law of a relabelled Z_257, decided from its medial form; the
    # O(n^3) scans of the whole table take about 5.7 s
    n = 257
    t = relabel(quadratical_over_zm(n, solve_quadratic_congruence(n)[0]),
                random.Random(n).sample(range(n), n))
    t0 = time.monotonic()
    report = identity_report(t)
    elapsed = time.monotonic() - t0
    assert all(v is None for v in report.values()), report
    assert elapsed < 1.5, elapsed
    print(f"PASS runtime: 15 identities on relabelled Z_257 in {elapsed:.2f}s")


def test_runtime_iso_none_at_order_65():
    # Z_65(24) and Z_5(2) x Z_13(3) are both quadratical and not isomorphic;
    # the search stops after the images sending the first generator to 0
    z65 = quadratical_over_zm(65, 24)
    z5xz13 = direct_product(quadratical_over_zm(5, 2), quadratical_over_zm(13, 3))
    t0 = time.monotonic()
    phi = find_isomorphism(z65, z5xz13)
    elapsed = time.monotonic() - t0
    assert phi is None
    assert elapsed < 0.1, elapsed
    print(f"PASS runtime: iso Z_65 vs Z_5 x Z_13 answered none in {elapsed:.3f}s")

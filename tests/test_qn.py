import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from quadlat import (
    CayleyTable,
    Completed,
    complete_qn,
    detect_form,
    direct_product,
    dual,
    dual_element_map,
    h_chain,
    is_quadratical,
    quadratical_over_zm,
    refute_case,
    relabel,
    solve_quadratic_congruence,
)
from quadlat.qn import canonical_labels, dual_element_map, seed_assignments

import naive_passes


def paper_pos(t, k):
    return (k - 1) if t == 1 else (t - 1) * 4 + k


def test_h_chain_q2(q2):
    dec = h_chain(q2, 0, 3, 2)
    assert dec.center == 4
    assert dec.blocks[0] == (0, 1, 2, 3)
    # H2 = (a*ab, ab*b, ba*a, b*ba)
    e = q2.entries
    assert dec.blocks[1] == (e[0][1], e[1][3], e[2][0], e[3][2])
    assert dec.blocks[1] == (5, 6, 7, 8)
    assert dec.elements() == frozenset(range(9))


def test_h_chain_q1_base_case(q1):
    dec = h_chain(q1, 0, 3, 1)
    assert dec.blocks == ((0, 1, 2, 3),)
    assert dec.center == 4
    assert dec.elements() == frozenset(range(5))


def test_h_chain_depth_three_z13():
    t = quadratical_over_zm(13, 11)
    dec = h_chain(t, 0, 1, 3)
    assert len(dec.blocks) == 3
    assert dec.elements() == frozenset(range(13))


def test_h_chain_rejections(q1):
    with pytest.raises(ValueError):
        h_chain(q1, 0, 0, 1)
    with pytest.raises(ValueError, match="depth must be positive, got 0"):
        h_chain(q1, 0, 3, 0)
    with pytest.raises(ValueError, match="overlap|repeated"):
        h_chain(q1, 0, 3, 2)
    add = CayleyTable.from_function(5, lambda x, y: (x + y) % 5)
    with pytest.raises(ValueError):
        h_chain(add, 0, 1, 1)


# One product of Q2 changed, so that the chain from (0, 3), blocks
# (0, 1, 2, 3) and (5, 6, 7, 8) about the centre 4, breaks one block law
# first.  Each changed row repeats a value, so no table here is
# quadratical.
@pytest.mark.parametrize("cell, value, message", [
    # (ab)*a = 0 = a makes the centre an element of H1
    ((1, 0), 0, "block 1 contains the centre"),
    # ab*ba = 0, not b
    ((1, 2), 0, "block 1 violates the cycle product law"),
    # a*ba = 5, not the centre
    ((0, 2), 5, "cross products in block 1 do not all equal the centre"),
    # centre*H2_1 = 1, not H1_1 = 0
    ((4, 5), 1, "centre row translation fails at block 2"),
    # H2_1*centre = 0, not H1_2 = 1
    ((5, 4), 0, "centre column translation fails at block 2"),
])
def test_h_chain_names_the_failing_block_law(q2, cell, value, message):
    rows = [list(row) for row in q2.entries]
    rows[cell[0]][cell[1]] = value
    t = CayleyTable.from_rows(rows)
    assert not is_quadratical(t)
    with pytest.raises(ValueError) as failed:
        h_chain(t, 0, 3, 2)
    assert str(failed.value) == message


def test_h_chain_stops_at_its_first_failing_block():
    # an order-13 table has room for three blocks besides the centre, so a
    # deeper chain fails at its fourth block: at once, and with the message
    # of depth 4, however deep it was asked to go
    t = quadratical_over_zm(13, 11)
    with pytest.raises(ValueError) as short:
        h_chain(t, 0, 1, 4)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as deep:
            h_chain(t, 0, 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(deep.value) == str(short.value)
    assert peak < 1 << 20


def test_detect_form_q2(q2):
    assert detect_form(q2) == (2, 0, 1)


def test_detect_form_z13():
    t = quadratical_over_zm(13, 11)
    found = detect_form(t)
    assert found is not None and found[0] == 3


def test_detect_form_z25_none():
    # no six-block form exists, so the search must come back empty
    assert detect_form(quadratical_over_zm(25, 22)) is None
    assert detect_form(quadratical_over_zm(25, 4)) is None


def test_detect_form_products_none(q1):
    p = direct_product(q1, q1)
    assert detect_form(p) is None


def test_detect_form_order_one_none():
    # the one table of order 1 = 4*0 + 1 is quadratical and has no block
    assert detect_form(CayleyTable.from_rows([[0]])) is None


def test_detect_form_matches_pair_search(q3_dual, q4_dual):
    # every admissible Z_m(a) with 5 <= m <= 101 and a seeded relabelling of
    # each, products in both factor orders, and the dual fixtures
    rng = random.Random(7)
    tables = [q3_dual, q4_dual]
    for m in range(5, 102, 4):
        for a in solve_quadratic_congruence(m):
            t = quadratical_over_zm(m, a)
            tables += [t, relabel(t, rng.sample(range(m), m))]
    z5, z13 = quadratical_over_zm(5, 2), quadratical_over_zm(13, 11)
    tables += [direct_product(z5, z13), direct_product(z13, z5),
               direct_product(direct_product(z5, z5), z5)]
    hits = 0
    for t in tables:
        found = detect_form(t)
        assert found == naive_passes.detect_form(t)
        if found is not None:
            depth, a, b = found
            assert a == 0
            assert h_chain(t, 0, b, depth).elements() == frozenset(range(t.n))
            hits += 1
    assert hits > 0


def test_detect_form_relabelled_z1025():
    # Z_1025(447) has no block form; the relabelled copy must say so too,
    # within seconds, is_quadratical included
    n = 1025
    z = quadratical_over_zm(n, solve_quadratic_congruence(n)[0])
    t = relabel(z, random.Random(1025).sample(range(n), n))
    is_quadratical.cache_clear()
    t0 = time.monotonic()
    assert detect_form(t) is None
    assert time.monotonic() - t0 < 5.0
    assert detect_form(z) is None


def test_detect_form_rejects_non_quadratical():
    add = CayleyTable.from_function(5, lambda x, y: (x + y) % 5)
    with pytest.raises(ValueError):
        detect_form(add)


def test_base_depth_blocks_and_choice_must_be_ints():
    # a bool compares and indexes like 0 or 1 and a float compares like an
    # int; both were once read as the int they equal
    z13 = quadratical_over_zm(13, 3)
    for a, b, depth in ((True, 2, 1), (0, 2.0, 1), (0, 2, True), (0, 2, 1.0)):
        with pytest.raises(ValueError, match="must be (ints|an int), got"):
            h_chain(z13, a, b, depth)
    for blocks, choice in ((True, 1), (1.0, 1), (1, True), (1, 1.0), (2, 2.0)):
        with pytest.raises(ValueError, match="must be an int|must be a slot"):
            seed_assignments(blocks, choice)


def test_dual_element_map_rows():
    m = dual_element_map(4)
    assert m[(1, 2)] == (1, 3) and m[(1, 3)] == (1, 2)
    assert m[(1, 1)] == (1, 1) and m[(1, 4)] == (1, 4)
    assert m[(3, 1)] == (3, 4) and m[(3, 2)] == (3, 2)
    assert m[(2, 1)] == (2, 3) and m[(2, 2)] == (2, 4)
    assert m[(4, 1)] == (4, 2) and m[(4, 3)] == (4, 4)
    with pytest.raises(ValueError, match="blocks must be positive, got 0"):
        dual_element_map(0)


def test_dual_element_map_involution():
    for blocks in (1, 2, 3, 4, 6, 7):
        m = dual_element_map(blocks)
        for key, image in m.items():
            assert m[image] == key


def _star_relabel(t, blocks):
    """Relabel the dual of a display-order fixture by the dual element
    map, staying in display order."""
    n = 4 * blocks + 1
    sigma = [4] * n
    sigma[4] = 4
    for (tt, k), (tt2, k2) in dual_element_map(blocks).items():
        sigma[paper_pos(tt, k)] = paper_pos(tt2, k2)
    d = dual(t)
    rows = [
        [sigma[d.entries[sigma[i]][sigma[j]]] for j in range(n)] for i in range(n)
    ]
    return tuple(tuple(r) for r in rows)


def test_dual_of_q3_matches_starred_fixture(q3, q3_dual):
    assert _star_relabel(q3, 3) == q3_dual.entries


def test_dual_of_q4_matches_starred_fixture(q4, q4_dual):
    assert _star_relabel(q4, 4) == q4_dual.entries


def test_detect_form_dual_fixtures(q3_dual, q4_dual):
    found3 = detect_form(q3_dual)
    assert found3 is not None and found3[0] == 3
    found4 = detect_form(q4_dual)
    assert found4 is not None and found4[0] == 4


def test_two_generation_evidence_orders_13_17(q3, q3_dual, q4, q4_dual):
    # every distinct pair generates, as for the smaller block forms
    from quadlat import two_generation_report

    for t in (q3, q3_dual, q4, q4_dual):
        assert two_generation_report(t).all_pairs_generate


def test_canonical_helpers():
    assert canonical_labels(2) == ("aba", "a", "ab", "ba", "b", "21", "22", "23", "24")
    # the dual permutes the block coordinates, so maps no slot to the
    # centre, and swaps ab and ba
    dual = dual_element_map(2)
    assert sorted(dual.values()) == sorted(dual)
    assert dual[(1, 2)] == (1, 3)


@pytest.mark.parametrize("call, message", [
    # a bool was read as the block count or slot it equals, a float ended
    # in a TypeError, and a count below 1 gave the one-block labels
    (lambda: dual_element_map(True), "blocks must be an int, got True"),
    (lambda: canonical_labels(2.0), "blocks must be an int, got 2.0"),
    (lambda: canonical_labels(0), "blocks must be positive, got 0"),
    (lambda: canonical_labels(-3), "blocks must be positive, got -3"),
])
def test_block_coordinates_must_be_ints(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_engine_completions_are_valid_chains():
    # the seed laws and the explicit chain checks are two encodings of the
    # block laws: every table the engine completes is a chain from (a, b) =
    # (1, 4) with centre 0, in canonical order
    outcomes = [(blocks, choice, complete_qn(blocks, choice)) for blocks in (1, 2, 3, 4)
                for choice in (1, 2, 3, 4)]
    outcomes += [(blocks, choice, refute_case(blocks, choice).completed)
                 for blocks, choice in ((7, 3), (7, 4), (9, 1), (9, 3))]
    completed = [case for case in outcomes if isinstance(case[2], Completed)]
    assert len(completed) == 11
    for blocks, choice, out in completed:
        dec = h_chain(out.table, 1, 4, blocks)
        assert dec.center == 0
        assert dec.blocks == tuple(tuple(range(4 * t + 1, 4 * t + 5)) for t in range(blocks))
        found = detect_form(out.table)
        assert found is not None and found[:2] == (blocks, 0), (blocks, choice)


# SHA-256 of seed_digest(64) and seed_digest(256), taken before the block
# laws were stated in one table.  The seeds fix every trace of the engine,
# and the engine digests reach only 30 blocks.  The second takes about ten
# seconds, so CI checks it in a step of its own, outside tier-1.
SEED_DIGEST_1_TO_64 = "4b2463764f01135d7668068fed86f940360a394346277f16f41ede638aff83c3"
SEED_DIGEST_1_TO_256 = "09192a40c577eebc008a3ddfeb42bc0ccedc9016182918b9d246acd2836c8a9d"


def seed_digest(max_blocks: int) -> str:
    """The seed lists of every block count up to max_blocks and every
    choice, in order."""
    h = hashlib.sha256()
    for blocks in range(1, max_blocks + 1):
        for choice in (1, 2, 3, 4):
            h.update(repr(seed_assignments(blocks, choice)).encode())
    return h.hexdigest()


def test_seed_lists_are_pinned():
    assert seed_digest(64) == SEED_DIGEST_1_TO_64


def detected_forms_hold_their_seeds(max_m: int) -> list[tuple[int, int]]:
    """The block form detect_form finds in each Z_m(a), m = 1 (mod 4) in
    5..max_m and a each root, labelled canonically (centre 0, block t slot
    k at 4(t-1)+k), must satisfy every seed of seed_assignments for its
    block count and the choice c read from centre*a = (n, c), the choice
    seeds included; returns (blocks, choice) for each table with a block
    form."""
    forms = []
    for m in range(5, max_m + 1, 4):
        for a in solve_quadratic_congruence(m):
            t = quadratical_over_zm(m, a)
            found = detect_form(t)
            if found is None:
                continue
            blocks, base, b = found
            dec = h_chain(t, base, b, blocks)
            element = [dec.center, *itertools.chain.from_iterable(dec.blocks)]
            e = t.entries
            choice = dec.blocks[-1].index(e[dec.center][base]) + 1
            for rule, (x, y), z in seed_assignments(blocks, choice):
                assert e[element[x]][element[y]] == element[z], (m, a, rule, (x, y), z)
            forms.append((blocks, choice))
    return forms


def test_detected_forms_hold_the_engine_seeds():
    # the detector and the engine read the block laws from one table; this
    # ties what each makes of them, on the 22 block-form tables up to m = 101
    forms = detected_forms_hold_their_seeds(101)
    assert len(forms) == 22
    assert sorted(set(forms)) == [
        (1, 2), (1, 4), (3, 1), (3, 2), (4, 2), (4, 3), (7, 3), (7, 4), (9, 1), (9, 3),
        (13, 1), (13, 3), (15, 1), (15, 2), (18, 3), (22, 2), (24, 2), (24, 3), (25, 1),
        (25, 3)]

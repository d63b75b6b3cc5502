import itertools
import math
import random

import pytest

from quadlat import (
    CayleyTable,
    LinearSpec,
    SearchCapExceeded,
    all_valid_k,
    build_idempotent_k_translatable,
    check_identity,
    feasible_k_idempotent_quadratical,
    find_translatable_ordering,
    gcd_quasigroup_property_test,
    idempotent_first_row,
    is_quadratical,
    k_translatable_check,
    linear_table,
    quadratical_over_zm,
    relabel,
    translatability_report,
)

from example_tables import order5_translatable_examples
import naive_passes


def additive_table(n):
    return CayleyTable.from_function(n, lambda x, y: (x + y) % n)


def test_additive_group_shift():
    for n in (3, 5, 8):
        t = additive_table(n)
        assert k_translatable_check(t, range(n), n - 1)
        assert all_valid_k(t) == {n - 1}


def test_order5_examples_four_translatable():
    for t in order5_translatable_examples():
        assert k_translatable_check(t, range(5), 4)
        assert check_identity(t, "latin-square") is None


def test_q2_not_translatable_natural(q2):
    assert all_valid_k(q2) == set()


def test_check_rejects_bad_k(q2):
    with pytest.raises(ValueError):
        k_translatable_check(q2, range(9), 0)
    with pytest.raises(ValueError):
        k_translatable_check(q2, range(9), 9)
    with pytest.raises(ValueError):
        k_translatable_check(q2, [0] * 9, 2)


def test_orderings_must_list_the_ints():
    # a float or a bool that equals an int is no element index
    t = quadratical_over_zm(5, 2)
    for ordering in ([0.0, 1.0, 2.0, 3.0, 4.0], [False, True, 2, 3, 4]):
        for call in (lambda: relabel(t, ordering),
                     lambda: k_translatable_check(t, ordering, 2),
                     lambda: all_valid_k(t, ordering),
                     lambda: translatability_report(t, ordering)):
            with pytest.raises(ValueError):
                call()


def test_shifts_must_be_ints():
    # a float or a bool shift is refused as a float or a bool in an
    # ordering is, with ValueError before any row is read
    t = quadratical_over_zm(5, 2)
    for k in (2.0, 1.5, True):
        for call in (lambda: k_translatable_check(t, range(5), k),
                     lambda: find_translatable_ordering(t, ks=[k]),
                     lambda: find_translatable_ordering(t, ks=[2, k]),
                     lambda: gcd_quasigroup_property_test(t.entries[0], k)):
            with pytest.raises(ValueError, match=f"shift k={k!r} outside the ints 1..4"):
                call()


def test_find_ordering_checks_shifts_at_order_1():
    with pytest.raises(ValueError, match="shift k=5 outside"):
        find_translatable_ordering(CayleyTable.from_rows([[0]]), ks=[5])
    assert find_translatable_ordering(CayleyTable.from_rows([[0]])) is None


def _translatable_by_definition(e, o, k):
    # e[o[q]][o[j]] = e[o[q-1]][o[j-k]] at every q in 1..n-1 and j
    n = len(e)
    return all(e[o[q]][o[j]] == e[o[q - 1]][o[(j - k) % n]]
               for q in range(1, n) for j in range(n))


def test_translatability_matches_its_definition():
    """k_translatable_check, all_valid_k and translatability_report against
    the law written out cell by cell, on random tables, k-translates of
    random rows, some with one cell changed, under the orderings that undo
    their relabelling, and the idempotent builder's tables."""
    rng = random.Random(37)
    cases = []
    for i in range(300):
        n = 1 + i % 7
        p = rng.sample(range(n), n)
        if i % 3 == 0:
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        else:
            # the k-translate of a random first row, relabelled by p
            first, k = [rng.randrange(n) for _ in range(n)], rng.randrange(1, max(n, 2))
            rows = relabel(CayleyTable.from_rows(
                [[first[(y - x * k) % n] for y in range(n)] for x in range(n)]), p).entries
        # p's inverse makes the relabelled k-translate k-translatable again;
        # at i % 3 == 2 one changed cell may spoil it in any row
        ordering = sorted(range(n), key=p.__getitem__)
        if i % 3 == 2:
            rows = [list(row) for row in rows]
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        cases.append((CayleyTable.from_rows(rows), ordering if i % 3 else p))
    for n in (5, 7, 11, 13):
        for k in range(2, n):
            if math.gcd(n, k) == math.gcd(n, k - 1) == 1:
                cases.append((build_idempotent_k_translatable(n, k), list(range(n))))
    valid = invalid = 0
    for t, ordering in cases:
        e, n = t.entries, t.n
        want = {k for k in range(1, n) if _translatable_by_definition(e, ordering, k)}
        for k in range(1, n):
            assert k_translatable_check(t, ordering, k) == (k in want), (e, ordering, k)
        assert all_valid_k(t, ordering) == want, (e, ordering)
        report = translatability_report(t, ordering)
        assert report == (tuple(ordering), frozenset(want),
                          tuple(e[ordering[0]][j] for j in ordering)), (e, ordering)
        valid += len(want)
        invalid += n - 1 - len(want)
    assert valid > 120 and invalid > 900, (valid, invalid)


def test_all_valid_k_trivial():
    one = CayleyTable.from_rows([[0]])
    assert all_valid_k(one) == set()
    t = linear_table(LinearSpec(5, 2, 4, 0))
    assert all_valid_k(t) == {2}


def test_report_first_row():
    t = linear_table(LinearSpec(5, 2, 4, 0))
    rep = translatability_report(t, range(5))
    assert rep.first_row == (0, 4, 3, 2, 1)
    assert rep.valid_ks == frozenset({2})


def test_find_ordering_q1(q1):
    # presented as a, b, ab, ba, aba there is no translatable sequence...
    q1p = relabel(q1, [0, 3, 1, 2, 4])
    assert all_valid_k(q1p) == set()
    # ...but a reordering makes it 3-translatable
    found = find_translatable_ordering(q1p)
    assert found is not None
    ordering, k = found
    assert k == 3
    assert ordering == (0, 1, 2, 4, 3)
    assert k_translatable_check(q1p, ordering, k)


def _plain_ordering_search(t, ks=None):
    """The first ordering of itertools.permutations, which come in
    lexicographic order, that some shift of ks makes t k-translatable,
    with its least shift; None when there is none."""
    ks = sorted(ks) if ks is not None else range(1, t.n)
    for ordering in itertools.permutations(range(t.n)):
        for k in ks:
            if k_translatable_check(t, ordering, k):
                return ordering, k
    return None


def test_find_ordering_matches_all_permutations():
    # latin squares, their isotopes, relabelled linear tables, non-latin
    # tables and relabelled k-translatable tables of orders 1-6; the search
    # fixes the ordering's first element to 0, the oracle tries every
    # permutation
    rng = random.Random(1729)
    tables = []
    for i in range(150):
        n = 1 + i % 6
        p, q, r = (rng.sample(range(n), n) for _ in range(3))
        kind = i // 6 % 5
        if kind == 0:
            rows = [[r[(p[x] + q[y]) % n] for y in range(n)] for x in range(n)]
        elif kind == 1:
            rows = [[r[(p[x] * q[y] + x) % n] for y in range(n)] for x in range(n)]
        elif kind == 2:
            spec = LinearSpec(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
            rows = relabel(linear_table(spec), p).entries
        elif kind == 3:
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        else:
            # row x is the first row rotated right by xk
            first, k = [rng.randrange(n) for _ in range(n)], rng.randrange(1, n) if n > 1 else 1
            rows = relabel(CayleyTable.from_rows(
                [[first[(y - x * k) % n] for y in range(n)] for x in range(n)]), p).entries
        tables.append(CayleyTable.from_rows([list(row) for row in rows]))
    found = 0
    for t in tables:
        want = _plain_ordering_search(t)
        assert find_translatable_ordering(t) == want, t.entries
        found += want is not None
        if t.n > 2:
            ks = rng.sample(range(1, t.n), 2)
            assert find_translatable_ordering(t, ks=ks) == _plain_ordering_search(t, ks), (
                t.entries, ks)
    assert 30 <= found < len(tables), found


def test_find_ordering_q1_dual(q1_dual):
    q1dp = relabel(q1_dual, [0, 3, 1, 2, 4])
    found = find_translatable_ordering(q1dp)
    assert found is not None
    assert found[1] == 2
    assert k_translatable_check(q1dp, found[0], 2)


def test_find_ordering_q2_none(q2):
    assert find_translatable_ordering(q2) is None


def test_find_ordering_cap(q3):
    with pytest.raises(SearchCapExceeded):
        find_translatable_ordering(q3)
    # a raised cap is honoured (cheap case: restrict shifts)
    assert find_translatable_ordering(q3, max_order=13, ks=(5,)) is not None


def test_explicit_orderings_order13_17(q3, q3_dual, q4, q4_dual):
    # shift pairs of dual tables sum to the order
    assert k_translatable_check(q3, [0, 3, 12, 1, 7, 8, 11, 4, 10, 5, 6, 2, 9], 5)
    assert k_translatable_check(q3_dual, [0, 3, 9, 2, 5, 6, 11, 4, 10, 7, 8, 1, 12], 8)
    assert k_translatable_check(
        q4, [0, 3, 7, 8, 15, 9, 13, 1, 11, 4, 10, 2, 16, 12, 14, 5, 6], 13)
    assert k_translatable_check(
        q4_dual, [0, 3, 5, 6, 16, 12, 14, 2, 11, 4, 10, 1, 15, 9, 13, 7, 8], 4)


def test_no_m_minus_1_translatable_quadratical(q1, q1_dual, q2):
    # exhaustive over orderings for the order-5 and order-9 tables
    assert find_translatable_ordering(q1, ks=(4,)) is None
    assert find_translatable_ordering(q1_dual, ks=(4,)) is None
    assert find_translatable_ordering(q2, ks=(8,)) is None


def test_first_row_examples():
    assert idempotent_first_row(7, 3) == [0, 3, 6, 2, 5, 1, 4]
    assert idempotent_first_row(7, 4) == [0, 2, 4, 6, 1, 3, 5]
    assert idempotent_first_row(5, 2) == [0, 4, 3, 2, 1]
    # cross-check against the linear quadratical table
    assert tuple(idempotent_first_row(5, 2)) == quadratical_over_zm(5, 2).entries[0]


def test_first_row_rejections():
    with pytest.raises(ValueError, match="order must be positive, got 0"):
        idempotent_first_row(0, 2)
    with pytest.raises(ValueError):
        idempotent_first_row(6, 5)  # even order
    with pytest.raises(ValueError):
        idempotent_first_row(9, 3)  # gcd(n, k) > 1
    with pytest.raises(ValueError):
        idempotent_first_row(9, 4)  # gcd(n, k-1) > 1
    with pytest.raises(ValueError):
        idempotent_first_row(7, 1)
    with pytest.raises(ValueError):
        idempotent_first_row(7, 7)


def test_build_idempotent():
    t = build_idempotent_k_translatable(5, 2)
    assert t.entries == quadratical_over_zm(5, 2).entries
    t7 = build_idempotent_k_translatable(7, 3)
    assert check_identity(t7, "idempotency") is None
    assert check_identity(t7, "latin-square") is None
    assert not is_quadratical(t7)
    assert k_translatable_check(t7, range(7), 3)


def test_build_idempotent_rebuild_from_rows():
    t = build_idempotent_k_translatable(11, 4)
    n, k = 11, 4
    for r in range(n):
        rebuilt = [
            tuple(t.entries[r][(j - q * k) % n] for j in range(n)) for q in range(n)
        ]
        assert rebuilt == [t.entries[(r + q) % n] for q in range(n)]


def test_order9_no_idempotent_translatable_quadratical():
    for k in range(2, 9):
        try:
            t = build_idempotent_k_translatable(9, k)
        except ValueError:
            continue
        assert not is_quadratical(t)


def test_feasible_sets_match_table_scan():
    for n in range(-3, 82, 2):
        want = naive_passes.feasible_k_idempotent_quadratical(n)
        assert feasible_k_idempotent_quadratical(n) == want, n


def test_feasible_sets():
    assert feasible_k_idempotent_quadratical(25) == {7, 18}
    assert feasible_k_idempotent_quadratical(9) == set()
    assert feasible_k_idempotent_quadratical(21) == set()
    assert feasible_k_idempotent_quadratical(5) == {2, 3}
    with pytest.raises(ValueError):
        feasible_k_idempotent_quadratical(8)


def test_gcd_property():
    assert gcd_quasigroup_property_test([1, 0, 2, 3, 4, 5], 2) == (True, False)
    assert gcd_quasigroup_property_test([0, 4, 3, 2, 1], 2) == (True, True)
    assert gcd_quasigroup_property_test(list(range(9)), 3) == (True, False)
    assert gcd_quasigroup_property_test([0, 0, 1], 2) == (False, False)
    with pytest.raises(ValueError, match="first row must be non-empty"):
        gcd_quasigroup_property_test([], 1)
    for k in (0, 3, -1):
        with pytest.raises(ValueError, match=f"shift k={k} outside"):
            gcd_quasigroup_property_test([0, 0, 1], k)

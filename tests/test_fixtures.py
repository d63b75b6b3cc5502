from quadlat import (
    CayleyTable,
    check_identity,
    detect_form,
    dual,
    find_isomorphism,
    h_chain,
    is_quadratical,
    quadratical_report,
)

from example_tables import order9_pair_tables, pair_product_table


def test_all_pair_products_quadratical():
    for t in order9_pair_tables():
        assert is_quadratical(t)
        assert all(v is None for v in quadratical_report(t).values())


def test_pair_products_isomorphic_to_each_other_and_q2(q2):
    tables = order9_pair_tables()
    first = tables[0]
    for other in tables[1:]:
        assert find_isomorphism(first, other) is not None
    assert find_isomorphism(first, q2) is not None


def test_pair_product_chain_partitions():
    # base pair (1,1), (1,2) as flat indices 4 and 5
    t = pair_product_table(1)
    dec = h_chain(t, 4, 5, 2)
    assert dec.elements() == frozenset(range(9))
    assert detect_form(t)[0] == 2


def test_pair_products_self_dual():
    for i in (1, 2):
        t = pair_product_table(i)
        assert find_isomorphism(t, dual(t)) is not None


def test_identity_counterexample_sides():
    # a non-cancellative groupoid: constant first row
    t = CayleyTable.from_rows([
        [0, 0, 0],
        [1, 2, 0],
        [2, 0, 1],
    ])
    assert check_identity(t, "left-cancellation") == (0, 0, 1)
    assert check_identity(t, "latin-square") == (0, 0, 1)
    assert check_identity(t, "right-solvability") is not None
    col = CayleyTable.from_rows([
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
    ])
    assert check_identity(col, "right-cancellation") == (0, 0, 1)
    add = CayleyTable.from_function(5, lambda x, y: (x + y) % 5)
    assert check_identity(add, "right-solvability") is None
    assert check_identity(add, "quadratical-law") is not None
    assert check_identity(add, "alterability") == (0, 0, 1, 1)
    q = CayleyTable.from_function(5, lambda x, y: (2 * x + 4 * y) % 5)
    assert check_identity(q, "quadratical-law") is None
    assert check_identity(q, "weave-left") is None
    assert check_identity(q, "weave-right") is None

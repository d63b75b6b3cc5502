"""Small example groupoids built from closed forms, shared by the tests.

The order-9 family lives on pairs over Z_3 (pair (x, y) gets index 3x + y);
the order-5 trio are shift-generated quasigroups given by their first rows.
"""

from quadlat import CayleyTable

# Coefficient rows ((x, y, z, u) weights for each output coordinate) of the
# six order-9 products on Z_3 x Z_3.
_PAIR_PRODUCTS = (
    ((0, 1, 1, 2), (1, 1, 2, 0)),
    ((0, 2, 1, 1), (2, 1, 1, 0)),
    ((1, 1, 0, 2), (1, 0, 2, 1)),
    ((1, 2, 0, 1), (2, 0, 1, 1)),
    ((2, 1, 2, 2), (2, 2, 1, 2)),
    ((2, 2, 2, 1), (1, 2, 2, 2)),
)


def pair_product_table(index: int) -> CayleyTable:
    """The index-th (1-based) of the six order-9 quasigroups over
    Z_3 x Z_3."""
    if not (1 <= index <= 6):
        raise ValueError(f"index must be 1..6, got {index}")
    cf, cs = _PAIR_PRODUCTS[index - 1]

    def op(p, q):
        x, y = divmod(p, 3)
        z, u = divmod(q, 3)
        first = (cf[0] * x + cf[1] * y + cf[2] * z + cf[3] * u) % 3
        second = (cs[0] * x + cs[1] * y + cs[2] * z + cs[3] * u) % 3
        return 3 * first + second

    return CayleyTable.from_function(9, op)


def order9_pair_tables() -> tuple[CayleyTable, ...]:
    return tuple(pair_product_table(i) for i in range(1, 7))


# Three (n-1)-translatable order-5 quasigroups that are not groups: the
# first idempotent, the second without idempotents, the third cyclic.
_ORDER5_ROWS = (
    (0, 3, 1, 4, 2),
    (1, 0, 2, 3, 4),
    (2, 0, 4, 1, 3),
)


def order5_translatable_examples() -> tuple[CayleyTable, ...]:
    out = []
    for first in _ORDER5_ROWS:
        rows = [tuple(first[(j - 4 * i) % 5] for j in range(5)) for i in range(5)]
        out.append(CayleyTable(5, tuple(rows)))
    return tuple(out)

from quadlat import (
    complete_qn,
    direct_product,
    find_isomorphism,
    find_translatable_ordering,
    refute_q6,
    relabel,
)
from quadlat.cli import main


def test_engine_traces_identical_across_runs():
    a = complete_qn(3, 1)
    b = complete_qn(3, 1)
    assert a.trace == b.trace
    c = complete_qn(3, 4)
    d = complete_qn(3, 4)
    assert c.trace == d.trace and c.conflict == d.conflict


def test_refutation_deterministic():
    r1 = refute_q6()
    r2 = refute_q6()
    for c1, c2 in zip(r1.cases, r2.cases):
        assert c1.splits == c2.splits
        assert len(c1.leaves) == len(c2.leaves)
        assert [l.conflict for l in c1.leaves] == [l.conflict for l in c2.leaves]


def test_ordering_search_deterministic(q1):
    q1p = relabel(q1, [0, 3, 1, 2, 4])
    assert find_translatable_ordering(q1p) == find_translatable_ordering(q1p)


def test_iso_greedy_generator_path(q1):
    # the order-25 self-product has no generating pair, forcing the greedy
    # generating-set fallback
    p = direct_product(q1, q1)
    perm = [7, 3, 21, 14, 0, 9, 18, 2, 11, 24, 5, 16, 1, 22, 8,
            13, 19, 4, 10, 23, 6, 15, 20, 12, 17]
    other = relabel(p, perm)
    phi = find_isomorphism(p, other)
    assert phi is not None
    e, f = p.entries, other.entries
    for x in range(25):
        for y in range(25):
            assert phi[e[x][y]] == f[phi[x]][phi[y]]


def test_emit_path_error(tmp_path, capsys):
    # the command line's one emitter reports an unwritable -o by its path
    target = tmp_path / "missing-dir" / "rows.csv"
    assert main(["scan", "--max-m", "10", "--max-k", "10", "-o", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rows.csv" in err

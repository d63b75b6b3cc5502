import os
from contextlib import contextmanager

import pytest

from quadlat import deduction, read_table, relabel

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_table(name):
    return read_table(os.path.join(FIXTURES, name + ".txt"))


@pytest.fixture(scope="session")
def q1():
    # element order a, ab, ba, b, aba
    return fixture_table("q1")


@pytest.fixture(scope="session")
def q1_dual():
    # element order a, b*a, a*b, b, aba
    return fixture_table("q1_dual")


@pytest.fixture(scope="session")
def q2():
    return fixture_table("q2")


@pytest.fixture(scope="session")
def q3():
    return fixture_table("q3")


@pytest.fixture(scope="session")
def q3_dual():
    return fixture_table("q3_dual")


@pytest.fixture(scope="session")
def q4():
    return fixture_table("q4")


@pytest.fixture(scope="session")
def q4_dual():
    return fixture_table("q4_dual")


def block_fixture_to_canonical(t):
    """Reorder a fixture stored in block display order (H1, centre, H2, ...)
    to the canonical order (centre, H1, H2, ...)."""
    blocks = (t.n - 1) // 4
    order = [4]
    for tt in range(1, blocks + 1):
        for k in range(1, 5):
            order.append((k - 1) if tt == 1 else (tt - 1) * 4 + k)
    return relabel(t, order)


@contextmanager
def untrimmed():
    """Inside the block, refute_case's leaves keep their whole traces: the
    trim of each leaf to the cone of its conflict is patched out.  For
    tests that feed on every step of a branch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deduction, "_conflict_cone", lambda st: tuple(st.trace))
        yield

import math
import os
import pickle
import subprocess
import sys

import pytest

import quadlat
from quadlat import (
    LinearSpec,
    dual,
    is_quadratical,
    linear_table,
    quadratical_over_zm,
    solve_quadratic_congruence,
    translatability_k_linear,
    translatability_k_quadratical,
)
from quadlat.zm import translatability_shift_set


def brute_force_roots(m):
    """The reference the closed form must match: scan every residue."""
    return [a for a in range(m) if (2 * a * a - 2 * a + 1) % m == 0]


def test_solve_small():
    assert solve_quadratic_congruence(1) == [0]
    assert solve_quadratic_congruence(5) == [2, 4]
    assert solve_quadratic_congruence(9) == []
    assert solve_quadratic_congruence(65) == [24, 29, 37, 42]
    for m in (0, -5):
        with pytest.raises(ValueError):
            solve_quadratic_congruence(m)


def test_solve_brute_force_agrees():
    for m in range(1, 3001):
        assert solve_quadratic_congruence(m) == brute_force_roots(m), m


def test_solve_prime_powers_and_composites():
    # Hensel lifting to high powers, and CRT over five primes (32 roots)
    for m, count in ((5 ** 8, 2), (13 ** 5, 2), (17 ** 4, 2),
                     (5 * 13 * 17 * 29 * 37, 32), (5 ** 3 * 13 ** 2, 4)):
        roots = solve_quadratic_congruence(m)
        assert len(roots) == count
        assert roots == brute_force_roots(m)


def test_sqrt_minus_one_of_non_prime_raises_promptly():
    # -1 has no square root modulo 21 = 1 (mod 4), which is not a prime, so
    # the non-residue search must give up and raise.  A child process with
    # a timeout turns a hang into a failure.
    code = (
        "from quadlat.zm import _sqrt_minus_one\n"
        "try:\n"
        "    _sqrt_minus_one(21)\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quadlat.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ValueError: no square root of -1 modulo 21")


def test_solutions_pair_up():
    for m in (5, 13, 17, 25, 65, 85, 325):
        sols = set(solve_quadratic_congruence(m))
        assert sols == {(1 - a) % m for a in sols}


def test_spectrum():
    for m in range(2, 1201):
        if solve_quadratic_congruence(m):
            assert m % 4 == 1


def test_linear_table_rows():
    t = linear_table(LinearSpec(5, 2, 4, 0))
    assert t.entries[0] == (0, 4, 3, 2, 1)
    add = linear_table(LinearSpec(7, 1, 1, 0))
    assert add.entries[3] == tuple((3 + y) % 7 for y in range(7))


def test_linear_spec_reduction():
    spec = LinearSpec(5, 7, -1, 10)
    assert (spec.a, spec.b, spec.c) == (2, 4, 0)
    assert spec.is_quadratical_form
    assert not LinearSpec(5, 2, 4, 1).is_quadratical_form
    assert not LinearSpec(5, 3, 3, 0).is_quadratical_form


def test_quadratical_over_zm():
    t = quadratical_over_zm(5, 2)
    assert is_quadratical(t)
    assert t.entries == linear_table(LinearSpec(5, 2, 4, 0)).entries
    assert is_quadratical(quadratical_over_zm(17, 7))
    assert is_quadratical(quadratical_over_zm(25, 22))
    with pytest.raises(ValueError):
        quadratical_over_zm(5, 3)


def test_quadratical_duality():
    for m, a in ((5, 2), (13, 3), (65, 24)):
        t = quadratical_over_zm(m, a)
        td = quadratical_over_zm(m, (1 - a) % m)
        assert dual(t).entries == td.entries


def test_k_linear():
    assert translatability_k_linear(LinearSpec(7, 4, 1, 0)) == 3
    for n in (4, 9, 12):
        assert translatability_k_linear(LinearSpec(n, 1, 1, 0)) == n - 1
    for n, a, c in ((9, 4, 2), (11, 3, 5)):
        assert translatability_k_linear(LinearSpec(n, a, 1, c)) == n - a


def test_k_linear_none_and_multiple():
    # b = 0: a + 0k never 0 unless a = 0, in which case every k works
    assert translatability_k_linear(LinearSpec(5, 2, 0, 0)) is None
    assert translatability_k_linear(LinearSpec(5, 0, 0, 0)) == [1, 2, 3, 4]
    # gcd(b, m) > 1 dividing -a: several shifts
    assert translatability_k_linear(LinearSpec(8, 4, 2, 0)) == [2, 6]
    assert translatability_shift_set(LinearSpec(8, 3, 2, 0)) == []


def test_shift_set_brute_force_agrees():
    for m in range(1, 61):
        for a in range(m):
            for b in range(m):
                brute = [k for k in range(1, m) if (a + k * b) % m == 0]
                assert translatability_shift_set(LinearSpec(m, a, b)) == brute, (m, a, b)


def test_k_quadratical_values():
    assert translatability_k_quadratical(13, 3) == 8
    assert translatability_k_quadratical(25, 22) == 7
    assert translatability_k_quadratical(65, 29) == 8
    assert translatability_k_quadratical(5, 2) == 2
    with pytest.raises(ValueError):
        translatability_k_quadratical(13, 5)


def test_non_positive_modulus_refused():
    # a zero modulus used to end in ZeroDivisionError, a negative one in a
    # message about the congruence "(mod -5)"
    for m in (0, -5):
        with pytest.raises(ValueError, match="modulus must be positive"):
            quadratical_over_zm(m, 1)
        with pytest.raises(ValueError, match="modulus must be positive"):
            translatability_k_quadratical(m, 1)
        with pytest.raises(ValueError, match=f"modulus must be positive, got {m}"):
            LinearSpec(m, 1, 1)


@pytest.mark.parametrize("call, message", [
    # True was read as the modulus 1, and a float modulus or coefficient
    # ended in a TypeError or built a spec
    (lambda: solve_quadratic_congruence(True), "modulus must be an int, got True"),
    (lambda: solve_quadratic_congruence(5.0), "modulus must be an int, got 5.0"),
    (lambda: quadratical_over_zm(5.0, 2), "modulus must be an int, got 5.0"),
    (lambda: translatability_k_quadratical(5.0, 2), "modulus must be an int, got 5.0"),
    (lambda: LinearSpec(5.0, 2, 3), "modulus must be an int, got 5.0"),
    (lambda: LinearSpec(5, 2.5, 3), "a must be an int, got 2.5"),
])
def test_moduli_and_coefficients_must_be_ints(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_every_root_has_an_invertible_a_minus_1_and_a_proper_shift():
    # the two facts translatability_k_quadratical's docstring proves, and
    # which let it divide by a - 1 and return k unchecked
    for m in range(5, 10**4 + 1):
        for a in solve_quadratic_congruence(m):
            k = translatability_k_quadratical(m, a)
            assert math.gcd(a - 1, m) == 1, (m, a)
            assert 2 <= k <= m - 2 and (a - 1) * k % m == a, (m, a, k)


def test_k_quadratical_agrees_with_linear():
    for m in range(5, 501):
        for a in solve_quadratic_congruence(m):
            k = translatability_k_quadratical(m, a)
            assert translatability_k_linear(LinearSpec(m, a, (1 - a) % m, 0)) == k


def test_dual_shifts_sum_to_m():
    for m in range(5, 1201):
        for a in solve_quadratic_congruence(m):
            k1 = translatability_k_quadratical(m, a)
            k2 = translatability_k_quadratical(m, (1 - a) % m)
            assert k1 + k2 == m
            assert k1 != k2


def test_linear_spec_is_an_immutable_value():
    spec = LinearSpec(13, 3, 11)
    # built reduced mod m, then compared and hashed by (m, a, b, c)
    same = LinearSpec(13, 16, -2, 13)
    assert spec == same and hash(spec) == hash(same)
    assert spec != LinearSpec(13, 3, 11, 1)
    assert spec != (13, 3, 11, 0)
    assert repr(spec) == "LinearSpec(m=13, a=3, b=11, c=0)"
    twin = pickle.loads(pickle.dumps(spec))
    assert twin == spec and hash(twin) == hash(spec)
    with pytest.raises(AttributeError, match="cannot assign to field 'a'"):
        spec.a = 4
    with pytest.raises(AttributeError, match="cannot delete field 'm'"):
        del spec.m
    assert (spec.m, spec.a, spec.b, spec.c) == (13, 3, 11, 0)

"""Linear groupoids x*y = ax + by + c over Z_m.

The quadratical ones are exactly those with c = 0, b = 1 - a and
2a^2 - 2a + 1 = 0 (mod m); for these the translatability index k is the
unique solution of (a-1)k = a (mod m).
"""

import math

from .errors import SearchCapExceeded, check_int

# Trial division stops at this divisor.  Every m < 10^14 is factored below
# it; past it, splitting one large modulus could take minutes or more.
TRIAL_DIVISION_CAP = 10**7


def _least_prime_factor(n: int, start: int = 2) -> int:
    """The smallest prime factor of n > 1, by trial division upward from
    start, which must be at most that factor.  Raises SearchCapExceeded
    when n exceeds TRIAL_DIVISION_CAP^2 and no divisor up to the cap
    splits it, so that n may still be composite."""
    root = math.isqrt(n)
    for p in range(start, min(root, TRIAL_DIVISION_CAP) + 1):
        if n % p == 0:
            return p
    if root > TRIAL_DIVISION_CAP:
        raise SearchCapExceeded(
            f"{n} has no prime factor up to {TRIAL_DIVISION_CAP} "
            f"(trial division cap), so it cannot be factored")
    return n


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 (mod 4).  Raises ValueError
    when no c < p gives one, which for a prime cannot happen: p is then not
    prime."""
    # s = c^((p-1)/4) squares to c^((p-1)/2), which is -1 exactly when c
    # is a quadratic non-residue
    c, s = 2, pow(2, (p - 1) // 4, p)
    while s * s % p != p - 1:
        c += 1
        if c >= p:
            raise ValueError(f"no square root of -1 modulo {p}: not a prime")
        s = pow(c, (p - 1) // 4, p)
    return s


def solve_quadratic_congruence(m: int) -> list[int]:
    """All a in 0..m-1 with 2a^2 - 2a + 1 = 0 (mod m), in increasing order.

    The congruence reads (2a - 1)^2 = -1 (mod m), so a = (1 + s)/2 for each
    square root s of -1.  Those exist only for odd m whose prime factors
    are all 1 (mod 4); each prime power p^e contributes +-s_p, and the
    Chinese remainder theorem combines them into 2^w roots, w the number
    of distinct primes.  Solutions come in pairs {a, 1-a mod m}.  m is
    factored by trial division, capped at TRIAL_DIVISION_CAP.
    """
    check_int("modulus", m, 1)
    roots_m, modulus = [0], 1
    rest, p = m, 2
    while rest > 1:
        p = _least_prime_factor(rest, p)
        if p % 4 != 1:
            return []
        q = p
        rest //= p
        while rest % p == 0:
            rest //= p
            q *= p
        s = _sqrt_minus_one(p)
        # Newton (Hensel) steps s <- s - (s^2 + 1)/(2s) double the precision
        known = p
        while known < q:
            known = min(known * known, q)
            s = (s - (s * s + 1) * pow(2 * s, -1, known)) % known
        inv = pow(modulus, -1, q)
        roots_m = [r + modulus * ((t - r) * inv % q)
                   for r in roots_m for t in (s, q - s)]
        modulus *= q
    half = (m + 1) // 2  # the inverse of 2 modulo the odd m
    return sorted((1 + s) * half % m for s in roots_m)


class LinearSpec:
    """Parameters of x*y = ax + by + c over Z_m, reduced mod m when built.
    Immutable; specs compare and hash by (m, a, b, c)."""

    __slots__ = ("m", "a", "b", "c")

    def __init__(self, m: int, a: int, b: int, c: int = 0):
        check_int("modulus", m, 1)
        object.__setattr__(self, "m", m)
        for name, value in (("a", a), ("b", b), ("c", c)):
            check_int(name, value)
            object.__setattr__(self, name, value % m)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.a, self.b, self.c) == (other.m, other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.m, self.a, self.b, self.c))

    def __repr__(self):
        return f"LinearSpec(m={self.m!r}, a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def __reduce__(self):
        return (LinearSpec, (self.m, self.a, self.b, self.c))

    @property
    def is_quadratical_form(self) -> bool:
        return (
            self.c == 0
            and self.b == (1 - self.a) % self.m
            and (2 * self.a * self.a - 2 * self.a + 1) % self.m == 0
        )


def linear_table(spec: LinearSpec):
    """The Cayley table of x*y = ax + by + c (mod m), a cayley.CayleyTable.
    Raises SearchCapExceeded when m exceeds cayley.MAX_ORDER."""
    from .cayley import MAX_ORDER, CayleyTable  # only table building needs cayley

    m, a, b, c = spec.m, spec.a, spec.b, spec.c
    if m > MAX_ORDER:
        raise SearchCapExceeded(f"order {m} exceeds the cap of {MAX_ORDER}")
    rows = []
    for x in range(m):
        base = a * x + c
        rows.append(tuple((base + b * y) % m for y in range(m)))
    return CayleyTable(m, tuple(rows))


def _check_root(m, a) -> None:
    """A ValueError unless m is a positive int and a an int solving
    2a^2 - 2a + 1 = 0 (mod m)."""
    check_int("modulus", m, 1)
    check_int("a", a)
    if (2 * a * a - 2 * a + 1) % m != 0:
        raise ValueError(f"a={a} does not satisfy 2a^2-2a+1 = 0 (mod {m})")


def quadratical_over_zm(m: int, a: int):
    """The quadratical quasigroup x*y = ax + (1-a)y (mod m); a must solve
    the quadratic congruence."""
    _check_root(m, a)
    return linear_table(LinearSpec(m, a, 1 - a))


def translatability_shift_set(spec: LinearSpec) -> list[int]:
    """All k in 1..m-1 with a + kb = 0 (mod m).

    The linear congruence kb = -a has solutions only when g = gcd(b, m)
    divides a, and then they form one class k0 (mod m/g).
    """
    m, a, b = spec.m, spec.a, spec.b
    g = math.gcd(b, m)
    if a % g:
        return []
    step = m // g
    k0 = -(a // g) * pow(b // g, -1, step) % step
    return list(range(k0 or step, m, step))


def translatability_k_linear(spec: LinearSpec):
    """The shift k making the table of spec translatable under the natural
    ordering: a single int when unique (always the case for gcd(b, m) = 1),
    None when no k works, a sorted list when several do."""
    ks = translatability_shift_set(spec)
    if not ks:
        return None
    if len(ks) == 1:
        return ks[0]
    return ks


def translatability_k_quadratical(m: int, a: int) -> int:
    """The unique k in 2..m-2 with (a-1)k = a (mod m), for a solving the
    quadratic congruence.  Satisfies k(a) + k(1-a) = m.

    The root makes the division safe and the shift proper, so neither is
    checked.  A prime p dividing both m and a - 1 would give
    2a^2 - 2a + 1 = 1 (mod p), so a - 1 is invertible mod m.  And m divides
    (2a - 1)^2 + 1 = 2(2a^2 - 2a + 1), so modulo m: k = 0 needs a = 0,
    which leaves m dividing 2; k = 1 needs a = a - 1, so m divides 1; and
    k = -1 needs 2a = 1, which leaves m dividing 1.  So for every m >= 5
    k lies in 2..m-2; below 5 only m = 1 has a root.
    """
    _check_root(m, a)
    if m < 5:
        raise ValueError(f"no valid shift range for modulus {m}")
    return a * pow(a - 1, -1, m) % m

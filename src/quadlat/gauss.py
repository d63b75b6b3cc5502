"""Quadratical quasigroups as modules over the Gaussian integers Z[i].

A quadratical quasigroup is x*y = alpha x + (1 - alpha) y over a
Z[i]-module, with alpha = (1 + i)/2: on the complex plane x*y is the
right-angle vertex over the segment xy.  Z_m(a) is Z[i]/(g) for a
primitive g = x + iy of norm m = x^2 + y^2, with i acting as s = 2a - 1.

The roots a of 2a^2 - 2a + 1 = 0 (mod m) are a = (1 + s)/2 for the square
roots s of -1 mod m, and those come in pairs {s, -s}, one pair s = x/y
(mod m) for each representation m = x^2 + y^2 with x > y >= 1 coprime
(Hermite-Serret).  An odd m needs x - y odd, so the walk of
primitive_norms over those pairs meets every m with roots, each pair of
roots once, and no other m.
"""

import math


def primitive_norms(last: int):
    """Yield (m, x, y) for every coprime x > y >= 1 with x - y odd and
    m = x^2 + y^2 <= last, by x ascending and then y ascending."""
    for x in range(2, math.isqrt(last - 1) + 1):
        # y from 1 or 2, of the parity opposite to x's
        for y in range(1 + x % 2, min(x - 1, math.isqrt(last - x * x)) + 1, 2):
            if math.gcd(x, y) == 1:
                yield x * x + y * y, x, y

"""Independent oracles for the orbifold Euler characteristic checks.

Orbifold Euler characteristics of the moduli of pointed curves come from
Bernoulli numbers plus the puncture recursion, away from the production
code paths.  The brute-force count oracles live with the tests.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2), Akiyama-Tanigawa scheme."""
    if m == 1:
        return Q(-1, 2)
    b: list[Fraction] = []
    for j in range(m + 1):
        b.append(Q(1, j + 1))
        for k in range(j, 0, -1):
            b[k - 1] = k * (b[k - 1] - b[k])
    return b[0]


def moduli_euler_characteristic(g: int, n: int) -> Fraction:
    """Orbifold Euler characteristic of the moduli of genus-g n-pointed curves.

    Seeds: chi(0,3) = 1 and chi(g,1) = -B_{2g}/(2g); removing a point
    multiplies by the Euler characteristic 2 - 2g - n of the punctured
    surface.
    """
    if g == 0:
        if n < 3:
            raise ValueError("unstable")
        chi = Q(1)
        for k in range(3, n):
            chi *= 2 - k
        return chi
    if n < 1:
        raise ValueError("need at least one point")
    chi = -bernoulli(2 * g) / (2 * g)
    for k in range(1, n):
        chi *= 2 - 2 * g - k
    return chi

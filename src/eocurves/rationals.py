"""Exact rational scalars and their string encoding.

``fractions.Fraction`` already maintains the invariants required of the
scalar type (reduced, positive denominator, zero is 0/1), so it is used
directly.  ``qstr`` writes the wire format used everywhere else:
``"p/q"``, or ``"p"`` when the denominator is 1.  ``Fraction`` parses it
back; the one reader in the program is ``cache.import_caches``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Collection

Q = Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def qstr(x: Fraction) -> str:
    """Encode a rational as ``"p/q"`` (``"p"`` when q = 1)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def over_common_denominator(values: Collection[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the denominators, and each value times d (an integer)."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]

"""Rational functions over the rationals with poles only at 0, 1 and -1.

Both curves are written in coordinates where every pole sits at one of
``POLES`` = 0, 1, -1.  A ``RatFunc`` in the variable v is stored as
``num / ((v - 1)^b (v + 1)^c)``, with ``num`` a one-variable
``SparseLaurent`` whose negative exponents carry the pole at 0.  Its
kernels are ``SparseLaurent`` ones; the test at +-1 sums numerators and a
Moebius substitution runs Horner's rule on ints, both one-variable loops.
The form is canonical: ``num`` is not divisible by v - 1 when b > 0, nor by
v + 1 when c > 0, so equality is literal comparison of ``(var, num, b, c)``.
A value has no place for any other pole: dividing by a function with a
zero outside ``POLES``, or a substitution that moves a pole there, raises
``UnfactoredDenominator``.  Antiderivatives are taken of Laurent
polynomials only (no pole at 1 or -1), termwise; a nonzero residue (which
would produce a logarithm) is an error.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from typing import Mapping

from .errors import DegenerateMap, UnfactoredDenominator
from .laurent import SparseLaurent
from .rationals import QZERO, qstr

POLES = (0, 1, -1)


@cache
def _factor(b: int, c: int) -> SparseLaurent:
    """(v - 1)^b (v + 1)^c, for b, c >= 0."""
    return (SparseLaurent.in_slot(1, 0, {0: -1, 1: 1}).pow(b)
            * SparseLaurent.in_slot(1, 0, {0: 1, 1: 1}).pow(c))


def _cancel(num: SparseLaurent, r: int, k: int) -> tuple[SparseLaurent, int]:
    """num over (v - r)^k with the common factors v - r divided out."""
    while k and num.vanishes_at_unit(r):
        num, k = num.divide_var_linear(0, r), k - 1
    return num, k


def _lowest(num: SparseLaurent, b: int, c: int) -> tuple[SparseLaurent, int, int]:
    """num / ((v - 1)^b (v + 1)^c) in lowest terms; a negative b or c multiplies."""
    if b < 0 or c < 0:
        num = num * _factor(max(-b, 0), max(-c, 0))
    num, b = _cancel(num, 1, max(b, 0))
    num, c = _cancel(num, -1, max(c, 0))
    return num, b, c


def _dense(p: SparseLaurent, shift: int = 0) -> list[Fraction]:
    """The coefficients of v^shift p low to high, for p with no exponent below -shift."""
    terms = {e + shift: c for (e,), c in p.terms.items()}
    return [terms.get(i, QZERO) for i in range(max(terms, default=-1) + 1)]


class RatFunc:
    """``num / ((v - 1)^b (v + 1)^c)`` in lowest terms, v named by ``var``."""

    __slots__ = ("var", "num", "b", "c")

    def __init__(self, terms: Mapping[int, Fraction | int], b: int = 0, c: int = 0,
                 var: str = "t"):
        """sum terms[e] v^e / ((v - 1)^b (v + 1)^c); a negative b or c multiplies."""
        self.num, self.b, self.c = _lowest(SparseLaurent.in_slot(1, 0, terms), b, c)
        self.var = var

    # -- constructors --------------------------------------------------------

    @classmethod
    def _new(cls, num: SparseLaurent, b: int, c: int, var: str) -> "RatFunc":
        """Wrap fields that are already in lowest terms (no check)."""
        f = object.__new__(cls)
        f.var, f.num, f.b, f.c = var, num, b, c
        return f

    @classmethod
    def zero(cls, var: str = "t") -> "RatFunc":
        return cls._new(SparseLaurent.zero(1), 0, 0, var)

    @classmethod
    def const(cls, c: Fraction | int, var: str = "t") -> "RatFunc":
        return cls._new(SparseLaurent.const(1, c), 0, 0, var)

    @classmethod
    def x(cls, var: str = "t") -> "RatFunc":
        return cls._new(SparseLaurent.var(1, 0), 0, 0, var)

    # -- basics ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not (self.b or self.c) and all(e >= 0 for (e,) in self.num.num)

    def coefficients(self) -> list[Fraction]:
        """The coefficients of a polynomial, low to high; ValueError otherwise."""
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial in {self.var}")
        return _dense(self.num)

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.var == other.var and self.b == other.b and self.c == other.c
                and self.num == other.num)

    def __hash__(self):
        return hash((self.var, self.num, self.b, self.c))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / ((v-1)^{self.b} (v+1)^{self.c}), var={self.var!r})"

    # -- field operations ---------------------------------------------------------

    def _plus(self, other: "RatFunc | Fraction | int", sign: int) -> "RatFunc":
        other = self._coerce(other)
        n1, b1, c1 = self.num, self.b, self.c
        n2, b2, c2 = other.num, other.b, other.c
        b, c = max(b1, b2), max(c1, c2)
        if b1 != b or c1 != c:
            n1 = n1 * _factor(b - b1, c - c1)
        if b2 != b or c2 != c:
            n2 = n2 * _factor(b - b2, c - c2)
        num = n1 + n2 if sign > 0 else n1 - n2
        # the sum can vanish at a pole only where both sides have it to one order
        if b1 == b2:
            num, b = _cancel(num, 1, b)
        if c1 == c2:
            num, c = _cancel(num, -1, c)
        return RatFunc._new(num, b, c, self.var)

    def __add__(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        return self._plus(other, -1)

    def __neg__(self) -> "RatFunc":
        return RatFunc._new(-self.num, self.b, self.c, self.var)

    def __mul__(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        if not isinstance(other, RatFunc):
            if not other:
                return RatFunc.zero(self.var)
            return RatFunc._new(self.num.scale(Fraction(other)), self.b, self.c, self.var)
        other = self._coerce(other)
        n1, b1, c1 = self.num, self.b, self.c
        n2, b2, c2 = other.num, other.b, other.c
        # a numerator is prime to its own pole factors, so a pole of one side
        # can only cancel against the other side's numerator
        if b1 and not b2:
            n2, b1 = _cancel(n2, 1, b1)
        elif b2 and not b1:
            n1, b2 = _cancel(n1, 1, b2)
        if c1 and not c2:
            n2, c1 = _cancel(n2, -1, c1)
        elif c2 and not c1:
            n1, c2 = _cancel(n1, -1, c2)
        return RatFunc._new(n1 * n2, b1 + b2, c1 + c2, self.var)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        return self * self._coerce(other)._inverse()

    def _coerce(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        """other as a function of self.var; ValueError for a function of another variable."""
        if not isinstance(other, RatFunc):
            return RatFunc.const(other, self.var)
        if other.var != self.var:
            raise ValueError(f"variable mismatch: {self.var} and {other.var}")
        return other

    def _inverse(self) -> "RatFunc":
        """1/self; UnfactoredDenominator if the numerator has a zero outside POLES."""
        if not self.num:
            raise ZeroDivisionError("division by zero rational function")
        # by Descartes' rule of signs a root of a Laurent polynomial with n
        # terms has multiplicity below n, so the two calls strip every v -+ 1
        rest, left_b = _cancel(self.num, 1, len(self.num))
        rest, left_c = _cancel(rest, -1, len(self.num))
        if len(rest) != 1:
            raise UnfactoredDenominator(f"denominator {rest!r} has a zero outside {POLES}")
        ((e,), a), = rest.terms.items()
        # a numerator is prime to its own pole factors, so self.b and the
        # multiplicity of 1 as a root are never both positive: no cancelling
        num = SparseLaurent.var(1, 0, -e, 1 / a) * _factor(self.b, self.c)
        return RatFunc._new(num, len(self.num) - left_b, len(self.num) - left_c, self.var)

    def pow(self, n: int) -> "RatFunc":
        if n < 0:
            return self._inverse().pow(-n)
        return RatFunc._new(self.num.pow(n), self.b * n, self.c * n, self.var)

    # -- calculus -------------------------------------------------------------------

    def diff(self) -> "RatFunc":
        # (num / (P^b Q^c))' = (num' P Q - num (b Q + c P)) / (P^(b+1) Q^(c+1))
        # with P = v - 1, Q = v + 1.  Without a pole at 1 (b = 0) the P's
        # cancel, likewise the Q's for c = 0.  The rest is in lowest terms:
        # at v = 1 the new numerator is -b num(1) Q(1)^ec, nonzero for b > 0,
        # and likewise at v = -1.
        num, b, c = self.num, self.b, self.c
        eb, ec = int(b > 0), int(c > 0)
        out = num.diff(0)
        if eb or ec:
            out = out * _factor(eb, ec) - num * (_factor(0, ec) * b + _factor(eb, 0) * c)
        return RatFunc._new(out, b + eb, c + ec, self.var)

    def eval(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        d = (x - 1) ** self.b * (x + 1) ** self.c
        if d == 0:
            raise ZeroDivisionError(f"pole at {qstr(x)}")
        return self.num.eval_partial(0, x).terms.get((0,), QZERO) / d

    def to_json(self) -> dict:
        """The quotient of two polynomials, denominator monic, coefficients low to high."""
        shift = max(0, -min((e for (e,) in self.num.num), default=0))
        den = [QZERO] * shift + _dense(_factor(self.b, self.c))
        return {"var": self.var, "num": [qstr(c) for c in _dense(self.num, shift)],
                "den": [qstr(c) for c in den]}


def substitute_mobius(f: RatFunc, coeffs: tuple[Fraction, Fraction, Fraction, Fraction],
                      new_var: str | None = None) -> RatFunc:
    """Substitute var -> (a*u + b)/(c*u + d) into f.

    Raises DegenerateMap when ad - bc = 0, and UnfactoredDenominator when a
    pole of the result falls outside POLES.
    """
    a, b, c, d = (Fraction(v) for v in coeffs)
    if a * d - b * c == 0:
        raise DegenerateMap("ad - bc = 0")
    var = new_var or f.var
    if not f:
        return RatFunc.zero(var)
    # f = h up^lo dn^(f.b + f.c - hi) (up - dn)^-f.b (up + dn)^-f.c for up = a u + b,
    # dn = c u + d and h = sum_e num_e up^(e - lo) dn^(hi - e), a..d taken over m
    m = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    num, lo, hi = f.num.homogenize(*(v.numerator * (m // v.denominator) for v in (a, b, c, d)))
    # the four linear factors vanish at the images of v = 0, oo, 1, -1: at
    # distinct points, so no two of them share a root
    scale, poles = Fraction(1, m ** (hi - lo)), {1: 0, -1: 0}
    for alpha, beta, k in ((a, b, lo), (c, d, f.b + f.c - hi),
                           (a - c, b - d, -f.b), (a + c, b + d, -f.c)):
        if not k:
            continue
        if not alpha:
            scale *= beta ** k
            continue
        scale *= alpha ** k
        r = -beta / alpha
        if r in poles:
            poles[r] -= k
        elif r == 0:
            num = num * SparseLaurent.var(1, 0, k)
        elif k > 0:
            num = num * SparseLaurent.in_slot(1, 0, {0: -r, 1: 1}).pow(k)
        else:
            raise UnfactoredDenominator(f"pole at {qstr(r)} outside {POLES}")
    return RatFunc._new(*_lowest(num.scale(scale), poles[1], poles[-1]), var)


def integrate_no_log(f: RatFunc, base_point: Fraction) -> RatFunc:
    """The unique antiderivative of the Laurent polynomial f vanishing at base_point.

    Raises ValueError when f has a pole at 1 or -1, and NonzeroResidue when
    f has a v^-1 term (its antiderivative would hold a logarithm).
    """
    if f.b or f.c:
        raise ValueError(f"{f!r} has a pole at 1 or -1: not a Laurent polynomial")
    return RatFunc._new(f.num.integrate(0, base=base_point), 0, 0, f.var)


def even_part(f: RatFunc, new_var: str = "u") -> RatFunc:
    """Rewrite an even rational function of x as a function of u = x^2."""
    # f = num / ((x - 1)^b (x + 1)^c) is even iff b = c and num is even
    if f.b != f.c or any(e % 2 for (e,) in f.num.num):
        raise ValueError("function is not even")
    return RatFunc._new(f.num.relabel(1, lambda k: (k[0] // 2,)), f.b, 0, new_var)

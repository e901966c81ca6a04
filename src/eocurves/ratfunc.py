"""Univariate polynomials and reduced rational functions over the rationals.

``UPoly`` is a dense list of ``int`` numerators (low to high) over one
``int`` denominator, so every kernel works in integers.
``RatFunc`` keeps a coprime numerator/denominator pair with monic
denominator, so equality is literal comparison of the variable name and
the two polynomials.  Both curves are written in coordinates where every
pole sits at one of ``POLES`` = 0, 1, -1, so a denominator is a constant
times powers of v, v - 1 and v + 1: reduction is synthetic division by
those three factors, and a denominator with any other factor raises
``UnfactoredDenominator`` rather than being reduced some other way.
Antiderivatives are computed by partial fractions over the same factors;
a nonzero residue at a simple pole (which would produce a logarithm) is
an error.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable

from .errors import DegenerateMap, NonzeroResidue, UnfactoredDenominator
from .rationals import QZERO, over_common_denominator, qstr

POLES = (0, 1, -1)


def _divide_linear(num: list[int], r: int) -> list[int] | None:
    """Quotient of sum num[i] v^i by v - r, or None when it leaves a remainder."""
    out = num[1:]
    acc = 0
    for i in range(len(out) - 1, -1, -1):
        acc = out[i] = out[i] + acc * r
    if num and num[0] + acc * r:
        return None
    return out


class UPoly:
    """Dense univariate polynomial: ``num[i] / den`` is the coefficient of t^i.

    Canonical: no trailing zero numerator, ``den > 0`` coprime to the
    numerators taken together, zero is ``([], 1)``; so equal values have
    equal ``(den, num)``.  ``coeffs`` is a ``Fraction`` view built on demand.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # over the lcm of the reduced denominators the numerators are coprime to it
        self.den, self.num = over_common_denominator(cs)

    @classmethod
    def from_ints(cls, num: list[int], den: int = 1) -> "UPoly":
        """``num[i] / den`` low to high, for nonzero ``den``; the list is taken over."""
        while num and not num[-1]:
            num.pop()
        g = gcd(den, *num) if den > 0 else -gcd(den, *num)
        p = object.__new__(cls)
        p.num, p.den = (num, den) if g == 1 else ([c // g for c in num], den // g)
        return p

    @classmethod
    def monomial(cls, n: int, c: Fraction | int = 1) -> "UPoly":
        return cls([0] * n + [Fraction(c)])

    @property
    def coeffs(self) -> list[Fraction]:
        """``Fraction`` view of the coefficients, low to high (a new list)."""
        den = self.den
        return [Fraction(c, den) for c in self.num]

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, tuple(self.num)))

    def __repr__(self) -> str:
        return f"UPoly({[qstr(c) for c in self.coeffs]})"

    def __add__(self, other: "UPoly") -> "UPoly":
        d = lcm(self.den, other.den)
        ua, ub = d // self.den, d // other.den
        return UPoly.from_ints([a * ua + b * ub for a, b in
                                zip_longest(self.num, other.num, fillvalue=0)], d)

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __neg__(self) -> "UPoly":
        return UPoly.from_ints([-c for c in self.num], self.den)

    def __mul__(self, other: "UPoly | Fraction | int") -> "UPoly":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        ia, ib = self.num, other.num
        out = [0] * (len(ia) + len(ib) - 1)
        for i, a in enumerate(ia):
            if a == 0:
                continue
            for j, b in enumerate(ib):
                out[i + j] += a * b
        return UPoly.from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "UPoly":
        if c == 0:
            return UPoly()
        return UPoly.from_ints([v * c.numerator for v in self.num], self.den * c.denominator)

    def pow(self, n: int) -> "UPoly":
        res = UPoly([1])
        base = self
        while n:
            if n & 1:
                res = res * base
            n >>= 1
            if n:
                base = base * base
        return res

    def monic(self) -> "UPoly":
        if not self.num or self.num[-1] == self.den:
            return self
        return UPoly.from_ints(list(self.num), self.num[-1])

    def diff(self) -> "UPoly":
        return UPoly.from_ints([c * i for i, c in enumerate(self.num)][1:], self.den)

    def integrate(self) -> "UPoly":
        # every new exponent i + 1 divides m, so c / (i + 1) = c (m / (i + 1)) / m
        m = lcm(*range(1, len(self.num) + 1))
        return UPoly.from_ints([0] + [c * (m // (i + 1)) for i, c in enumerate(self.num)],
                               self.den * m)

    def eval(self, x: Fraction | int) -> Fraction:
        # Horner on x = p/q in integers: after step i, acc / q^i is the partial value
        p, q = x.numerator, x.denominator
        acc = 0
        for i, c in enumerate(reversed(self.num)):
            acc = acc * p + c * q ** i
        return Fraction(acc, self.den * q ** max(len(self.num) - 1, 0))

    def to_json(self) -> list[str]:
        return [qstr(c) for c in self.coeffs]


def _cancel_poles(num: UPoly, den: UPoly) -> tuple[UPoly, UPoly]:
    """num/den in lowest terms, for den a constant times powers of v - r, r in POLES."""
    n, d, rest = num.num, den.num, den.num
    for r in POLES:
        k = 0  # multiplicity of r as a root of den
        q = _divide_linear(rest, r)
        while q is not None:
            rest, k = q, k + 1
            q = _divide_linear(rest, r)
        while k:
            q = _divide_linear(n, r)
            if q is None:
                break
            n, d, k = q, _divide_linear(d, r), k - 1
    if len(rest) > 1:
        raise UnfactoredDenominator(
            f"denominator factor of degree {len(rest) - 1} outside the poles {POLES}")
    return UPoly.from_ints(n, num.den), UPoly.from_ints(d, den.den)


class RatFunc:
    """Reduced ratio of two univariate polynomials with a variable tag.

    The denominator is monic and a product of powers of v - r, r in ``POLES``.
    """

    __slots__ = ("num", "den", "var")

    def __init__(self, num: UPoly, den: UPoly | None = None, var: str = "t",
                 _reduced: bool = False):
        if den is None:
            den = UPoly([1])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            if num.is_zero():
                den = UPoly([1])
            else:
                num, den = _cancel_poles(num, den)
                if den.num[-1] != den.den:
                    num = num.scale(Fraction(den.den, den.num[-1]))
                    den = den.monic()
        self.num = num
        self.den = den
        self.var = var

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, var: str = "t") -> "RatFunc":
        return cls(UPoly(), UPoly([1]), var, _reduced=True)

    @classmethod
    def const(cls, c: Fraction | int, var: str = "t") -> "RatFunc":
        return cls(UPoly([c]), UPoly([1]), var, _reduced=True)

    @classmethod
    def x(cls, var: str = "t") -> "RatFunc":
        return cls(UPoly([0, 1]), UPoly([1]), var, _reduced=True)

    @classmethod
    def from_laurent_dict(cls, d: dict[int, Fraction], var: str = "t") -> "RatFunc":
        """Build from exponent -> coefficient with possibly negative exponents."""
        if not d:
            return cls.zero(var)
        shift = -min(min(d), 0)
        num = [QZERO] * (max(d) + shift + 1)
        for e, c in d.items():
            num[e + shift] = c
        return cls(UPoly(num), UPoly.monomial(shift), var)

    # -- basics ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.var == other.var and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.var, self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r}, var={self.var!r})"

    # -- field operations ---------------------------------------------------------

    def __add__(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den, self.var)

    __radd__ = __add__

    def __sub__(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den, self.var)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, self.var, _reduced=True)

    def __mul__(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den, self.var)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num, self.var)

    def _coerce(self, other: "RatFunc | Fraction | int") -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        return RatFunc.const(Fraction(other), self.var)

    def pow(self, n: int) -> "RatFunc":
        if n < 0:
            inv = RatFunc(self.den, self.num, self.var)
            return inv.pow(-n)
        return RatFunc(self.num.pow(n), self.den.pow(n), self.var)

    # -- calculus -------------------------------------------------------------------

    def diff(self) -> "RatFunc":
        return RatFunc(self.num.diff() * self.den - self.num * self.den.diff(),
                       self.den * self.den, self.var)

    def eval(self, x: Fraction) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {qstr(x)}")
        return self.num.eval(x) / d

    def to_json(self) -> dict:
        return {"var": self.var, "num": self.num.to_json(), "den": self.den.to_json()}


def substitute_mobius(f: RatFunc, coeffs: tuple[Fraction, Fraction, Fraction, Fraction],
                      new_var: str | None = None) -> RatFunc:
    """Substitute var -> (a*u + b)/(c*u + d) into f.

    Raises DegenerateMap when ad - bc = 0.
    """
    a, b, c, d = (Fraction(v) for v in coeffs)
    if a * d - b * c == 0:
        raise DegenerateMap("ad - bc = 0")
    up = UPoly([b, a])
    dn = UPoly([d, c])
    m = max(f.num.degree(), f.den.degree(), 0)
    up_pows, dn_pows = [UPoly([1])], [UPoly([1])]
    for _ in range(m):
        up_pows.append(up_pows[-1] * up)
        dn_pows.append(dn_pows[-1] * dn)

    def homogenize(p: UPoly) -> UPoly:
        acc = UPoly()
        for i, c in enumerate(p.num):
            if c == 0:
                continue
            acc = acc + up_pows[i] * dn_pows[m - i] * c
        return acc.scale(Fraction(1, p.den))

    num = homogenize(f.num)
    den = homogenize(f.den)
    return RatFunc(num, den, new_var or f.var)


def partial_fractions(f: RatFunc) -> tuple[UPoly, dict[int, dict[int, Fraction]]]:
    """Decompose f as poly + sum of a_{r,k}/(x-r)^k over r in POLES."""
    num, den_left = f.num, f.den.num
    parts: dict[int, dict[int, Fraction]] = {}
    for r in POLES:
        e = 0  # multiplicity of the pole at r
        q = _divide_linear(den_left, r)
        while q is not None:
            den_left, e = q, e + 1
            q = _divide_linear(den_left, r)
        # num / (other (x-r)^k) = a/(x-r)^k + (num - a other)/(other (x-r)^k),
        # and the second numerator vanishes at r for a = num(r)/other(r)
        other = UPoly.from_ints(den_left, f.den.den)
        for k in range(e, 0, -1):
            a = num.eval(r) / other.eval(r)
            if a != 0:
                parts.setdefault(r, {})[k] = a
            num = num - other.scale(a)
            num = UPoly.from_ints(_divide_linear(num.num, r), num.den)
    # what is left of the monic denominator is 1, so num is the polynomial part
    return num, parts


def integrate_no_log(f: RatFunc, base_point: Fraction) -> RatFunc:
    """The unique antiderivative of f vanishing at base_point.

    Partial fractions over the poles; a nonzero residue at a simple pole
    raises NonzeroResidue.
    """
    poly, parts = partial_fractions(f)
    anti = RatFunc(poly.integrate(), UPoly([1]), f.var)
    for r, table in parts.items():
        for k, a in table.items():
            if k == 1:
                raise NonzeroResidue(f"residue {qstr(a)} at {qstr(r)}")
            # integral of a/(x-r)^k is a*(x-r)^(1-k)/(1-k)
            anti = anti + RatFunc(UPoly([a / (1 - k)]),
                                  UPoly([-r, 1]).pow(k - 1), f.var)
    return anti - RatFunc.const(anti.eval(Fraction(base_point)), f.var)


def even_part(f: RatFunc, new_var: str = "u") -> RatFunc:
    """Rewrite an even rational function of x as a function of u = x^2."""
    # f(x) = N(x) D(-x) / (D(x) D(-x)); both products must be even.
    def negate(p: UPoly) -> UPoly:
        return UPoly.from_ints([c if i % 2 == 0 else -c for i, c in enumerate(p.num)], p.den)

    num = f.num * negate(f.den)
    den = f.den * negate(f.den)

    def squeeze(p: UPoly) -> UPoly:
        if any(p.num[1::2]):
            raise ValueError("function is not even")
        return UPoly.from_ints(p.num[0::2], p.den)

    return RatFunc(squeeze(num), squeeze(den), new_var)

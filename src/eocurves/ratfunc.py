"""Univariate polynomials and reduced rational functions over the rationals.

``UPoly`` is a dense list of ``int`` numerators (low to high) over one
``int`` denominator; every kernel works in integers, and the gcd runs the
primitive remainder sequence (Brown 1971; Knuth, TAOCP vol. 2, 4.6.1).
``RatFunc`` keeps a coprime numerator/denominator pair with monic
denominator, so equality is literal comparison of the variable name and
the two polynomials.
Antiderivatives are computed by partial fractions over a declared set of
linear factors only; a nonzero residue at a simple pole (which would
produce a logarithm) is an error.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DegenerateMap, NonzeroResidue, UnfactoredDenominator
from .rationals import QZERO, over_common_denominator, qstr


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

    def valuation(self) -> int:
        """Exponent of the lowest nonzero term; -1 for the zero polynomial."""
        return next((i for i, c in enumerate(self.num) if c), -1)

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        """Quotient and remainder, by pseudo-division of the numerators."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.num, other.num
        dd = len(b) - 1
        lead = b[-1]
        if len(a) - 1 < dd:
            return UPoly(), self
        if other.valuation() == dd:
            # a monomial lead/db * t^dd: the quotient is a shifted scale
            return (UPoly.from_ints([c * other.den for c in a[dd:]], self.den * lead),
                    UPoly.from_ints(a[:dd], self.den))
        # self = a/da, other = b/db and s a = quot b + rem: self = (quot db other + rem)/(s da)
        rem = list(a)
        quot = [0] * (len(a) - dd)
        s = 1
        for i in range(len(a) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            # scale by as little of lead as makes c divisible by it
            up = abs(lead) // gcd(c, lead)
            if up != 1:
                s *= up
                rem = [v * up for v in rem[:i]]
                quot = [v * up for v in quot]
                c *= up
            quot[i - dd] = q = c // lead
            for j in range(dd):
                rem[i - dd + j] -= q * b[j]
        d = self.den * s
        return (UPoly.from_ints([v * other.den for v in quot], d),
                UPoly.from_ints(rem[:dd], d))

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[1]

    def monic(self) -> "UPoly":
        if not self.num or self.num[-1] == self.den:
            return self
        return UPoly.from_ints(list(self.num), self.num[-1])

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic gcd (zero when both are zero).

        The power of t is split off first: with a = t^va a' and b = t^vb b'
        where t divides neither a' nor b', gcd(a, b) = t^min(va, vb)
        gcd(a', b'), and the remainder sequence runs only when neither a'
        nor b' is a constant.  It is the primitive one: each remainder is
        divided by its content (num over gcd(num)), and only the last is
        made monic.
        """
        if self.is_zero() or other.is_zero():
            return (other if self.is_zero() else self).monic()
        va, vb = self.valuation(), other.valuation()
        a = UPoly.from_ints(self.num[va:], gcd(*self.num))
        b = UPoly.from_ints(other.num[vb:], gcd(*other.num))
        if a.degree() == 0 or b.degree() == 0:
            return UPoly.monomial(min(va, vb))
        while not b.is_zero():
            r = (a % b).num
            a, b = b, UPoly.from_ints(r, gcd(*r) or 1)
        g = a.monic()
        return UPoly.from_ints([0] * min(va, vb) + g.num, g.den)

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

    def eval_float(self, x: float) -> float:
        # int / int rounds correctly, exactly as float(Fraction) does
        den = self.den
        acc = 0.0
        for c in reversed(self.num):
            acc = acc * x + c / den
        return acc

    def to_json(self) -> list[str]:
        return [qstr(c) for c in self.coeffs]


class RatFunc:
    """Reduced ratio of two univariate polynomials with a variable tag."""

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
                g = num.gcd(den)
                if g.degree() > 0:
                    num = num // g
                    den = den // g
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

    def eval_float(self, x: float) -> float:
        return self.num.eval_float(x) / self.den.eval_float(x)

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


def partial_fractions(f: RatFunc, roots: Sequence[Fraction]
                      ) -> tuple[UPoly, dict[Fraction, dict[int, Fraction]]]:
    """Decompose f as poly + sum of a_{r,k}/(x-r)^k over the declared roots.

    The denominator must factor completely into powers of (x - r) for the
    given roots, otherwise UnfactoredDenominator is raised.
    """
    num, den = f.num, f.den
    mults: dict[Fraction, int] = {}
    rest = den
    for r in roots:
        fac = UPoly([-r, 1])
        while True:
            q, rem = rest.divmod(fac)
            if rem.is_zero():
                mults[r] = mults.get(r, 0) + 1
                rest = q
            else:
                break
    if rest.degree() != 0:
        raise UnfactoredDenominator(
            f"denominator factor of degree {rest.degree()} outside declared roots")
    num = num.scale(Fraction(rest.den, rest.num[0]))

    parts: dict[Fraction, dict[int, Fraction]] = {}
    den_left = UPoly([1])
    for r, e in mults.items():
        den_left = den_left * UPoly([-r, 1]).pow(e)
    for r, e in mults.items():
        fac = UPoly([-r, 1])
        for k in range(e, 0, -1):
            dtilde = den_left // fac.pow(k)
            a = num.eval(r) / dtilde.eval(r)
            if a != 0:
                parts.setdefault(r, {})[k] = a
            num = (num - dtilde.scale(a)) // fac
            den_left = den_left // fac
    # what is left of the denominator is 1, so num is the polynomial part
    return num, parts


def integrate_no_log(f: RatFunc, base_point: Fraction,
                     roots: Sequence[Fraction]) -> RatFunc:
    """The unique antiderivative of f vanishing at base_point.

    Partial fractions over the declared linear factors; a nonzero residue
    at a simple pole raises NonzeroResidue.
    """
    poly, parts = partial_fractions(f, roots)
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

"""Transport of the WKB data onto the curve symbol.

The operators d_n = sum_{r=1}^{n+1} S_{n+1-r}^{(r)}/r! (d/dy)^r are
assembled into D_r via exp(sum h^n d_n) = sum h^r D_r; applying D_r to
the y-derivative tower of the curve symbol, restricted to the curve,
exposes the corrections A_k of the quantized operator order by order.
Both shipped models have A_k = 0 for all k >= 1, which is also how the
coefficients S_n' can be solved for one at a time.

Coefficients live in the curve-uniformizing coordinate z.  Each model
fixes its own base derivative: d/dx for the Catalan curve, the
logarithmic x d/dx for the exponential curve (that is the only frame in
which its S-derivatives stay rational).  A model is looked up by name in
``MODELS``; each model module supplies its curve symbol, its map ``to_z``
and its base-frame S-derivatives ``base_s_primes``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from . import catalan, hurwitz
from .errors import DivisionBySingularSymbol, InsufficientData
from .ratfunc import RatFunc
from .shared import CurveSymbol

Q = Fraction

MODELS = {"catalan": catalan, "hurwitz": hurwitz}


class YPolyOperator:
    """Polynomial in d/dy with rational-function coefficients in z.

    Coefficients are y-independent, so operator composition is plain
    convolution of the coefficient maps.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, RatFunc] | None = None):
        self.coeffs: dict[int, RatFunc] = {
            r: c for r, c in (coeffs or {}).items() if not c.is_zero()}

    @classmethod
    def identity(cls) -> "YPolyOperator":
        return cls({0: RatFunc.const(1, "z")})

    @classmethod
    def zero(cls) -> "YPolyOperator":
        return cls({})

    def __add__(self, other: "YPolyOperator") -> "YPolyOperator":
        out = dict(self.coeffs)
        for r, c in other.coeffs.items():
            out[r] = out[r] + c if r in out else c
        return YPolyOperator(out)

    def __mul__(self, other: "YPolyOperator") -> "YPolyOperator":
        out: dict[int, RatFunc] = {}
        for r1, c1 in self.coeffs.items():
            for r2, c2 in other.coeffs.items():
                r = r1 + r2
                term = c1 * c2
                out[r] = out[r] + term if r in out else term
        return YPolyOperator(out)

    def scale(self, c: Fraction) -> "YPolyOperator":
        return YPolyOperator({r: v * c for r, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs


def curve_symbol(model: str) -> CurveSymbol:
    return MODELS[model].curve_symbol()


def model_s_primes(model: str, m_max: int) -> list[RatFunc]:
    """First base-frame derivatives S_0'..S_max' as functions of z."""
    module = MODELS[model]
    return [module.to_z(p) for p in module.base_s_primes(m_max)]


def _derivative_tower(first: RatFunc, dz_factor: RatFunc, depth: int) -> list[RatFunc]:
    """[S^(1), S^(2), ..., S^(depth)] from the first derivative."""
    out = [first]
    for _ in range(depth - 1):
        out.append(dz_factor * out[-1].diff())
    return out


def build_d_operators(order: int, s_primes: Sequence[RatFunc],
                      dz_factor: RatFunc) -> list[YPolyOperator]:
    """The operators D_0..D_order from exp(sum h^n d_n).

    ``s_primes[m]`` must hold the first base-frame derivative of S_m for
    m <= order; higher derivatives are generated with dz_factor.
    """
    if len(s_primes) <= order:
        raise InsufficientData(
            f"need S_0..S_{order}, got {len(s_primes)} entries")
    towers = [_derivative_tower(s_primes[m], dz_factor, order + 1 - m + 1)
              for m in range(order + 1)]

    def little_d(n: int) -> YPolyOperator:
        coeffs: dict[int, RatFunc] = {}
        for r in range(1, n + 2):
            m = n + 1 - r
            coeffs[r] = towers[m][r - 1] * Q(1, factorial(r))
        return YPolyOperator(coeffs)

    # the d_n commute (their coefficients do not depend on y), so E =
    # exp(sum h^n d_n) solves h dE/dh = (sum n h^n d_n) E, which reads
    # h D_h = sum_{n=1..h} n d_n D_{h-n}
    ds = [little_d(n) for n in range(1, order + 1)]
    result = [YPolyOperator.identity()]
    for h in range(1, order + 1):
        acc = YPolyOperator.zero()
        for n in range(1, h + 1):
            acc = acc + (ds[n - 1] * result[h - n]).scale(Q(n, h))
        result.append(acc)
    return result


def apply_to_symbol(op: YPolyOperator, curve: CurveSymbol) -> RatFunc:
    """sum_r coeff_r * (d/dy)^r A, restricted to the curve."""
    total = RatFunc.zero("z")
    for r, c in op.coeffs.items():
        t = curve.tower(r)
        if not t.is_zero():
            total = total + c * t
    return total


def recover_corrections(model: str, order: int) -> list[RatFunc]:
    """A_1..A_order solved from the transport hierarchy.

    Both shipped models must return identically zero functions.  The
    recovered corrections are y-independent, so only D_n applied to the
    base symbol feeds each step.
    """
    curve = curve_symbol(model)
    ops = build_d_operators(order, model_s_primes(model, order), curve.dz_factor)
    corrections: list[RatFunc] = []
    for n in range(1, order + 1):
        known = apply_to_symbol(ops[n], curve)
        # D_r applied to an already-recovered scalar A_k contributes only
        # through its (d/dy)^0 part, which is empty for r >= 1
        corrections.append(-known)
    return corrections


def s_prime_from_hierarchy(model: str, n: int) -> RatFunc:
    """Solve the order-n transport equation for the base-frame S_n'.

    D_n A = S_n' (dA/dy) + lower-order data on the curve; the shipped
    models make every full order vanish, so S_n' = -(known)/(dA/dy).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    curve = curve_symbol(model)
    lower = model_s_primes(model, n - 1)[:n]
    padded = list(lower) + [RatFunc.zero("z")]
    ops = build_d_operators(n, padded, curve.dz_factor)
    known = apply_to_symbol(ops[n], curve)
    dy1 = curve.tower(1)
    if dy1.is_zero():
        raise DivisionBySingularSymbol("dA/dy vanishes on the curve")
    return -known / dy1

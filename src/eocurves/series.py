"""Truncated power series with strict out-of-range access.

Coefficients are exact rationals.  Reading a coefficient beyond the
retained order raises instead of silently returning zero: silent
truncation is how fake verification passes happen.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import SeriesOrderError
from .rationals import QONE, QZERO


class TruncatedSeries:
    """sum_{k=0}^{N} c_k * var^k, exact through order N."""

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs: Iterable[Fraction | int], var: str = "x"):
        self.coeffs = [Fraction(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")
        self.var = var

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if k < 0 or k > self.order:
            raise SeriesOrderError(
                f"coefficient {k} outside retained order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.var == other.var

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs[:6]}..., var={self.var!r}, N={self.order})"

    def _joint(self, other: "TruncatedSeries") -> int:
        if self.var != other.var:
            raise ValueError("variable mismatch")
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._joint(other)
        return TruncatedSeries([self.coeffs[k] + other.coeffs[k]
                                for k in range(n + 1)], self.var)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._joint(other)
        return TruncatedSeries([self.coeffs[k] - other.coeffs[k]
                                for k in range(n + 1)], self.var)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.var)

    def __mul__(self, other: "TruncatedSeries | Fraction | int") -> "TruncatedSeries":
        if isinstance(other, (Fraction, int)):
            return TruncatedSeries([c * other for c in self.coeffs], self.var)
        n = self._joint(other)
        out = [QZERO] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out, self.var)

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """1/self, requiring a nonzero constant term."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("reciprocal of a series with zero constant term")
        n = self.order
        out = [QZERO] * (n + 1)
        out[0] = 1 / a0
        for m in range(1, n + 1):
            s = QZERO
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    s += self.coeffs[k] * out[m - k]
            out[m] = -s / a0
        return TruncatedSeries(out, self.var)

    def exp(self) -> "TruncatedSeries":
        """exp(self), requiring a zero constant term.

        Coefficient recurrence from E' = f' E.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        n = self.order
        out = [QZERO] * (n + 1)
        out[0] = QONE
        for m in range(1, n + 1):
            s = QZERO
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    s += k * self.coeffs[k] * out[m - k]
            out[m] = s / m
        return TruncatedSeries(out, self.var)

    def diff(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries([QZERO], self.var)
        return TruncatedSeries([k * self.coeffs[k] for k in range(1, self.order + 1)],
                               self.var)

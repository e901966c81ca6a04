"""Exact finite sums c * q^j hbar^k e^{-m w}, with q = e^hbar.

This is where the difference-differential equation, its heat-equation
companion, and the commutation relation between the two operators are
checked termwise with no transcendental evaluations.  Elements are
``SparseLaurent(3, ...)`` in the slots (q, hbar, E = e^{-w}): the w-shift
acts as E^m -> q^m E^m, and d/d(hbar) sees q through q' = q.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .laurent import SparseLaurent

Q = Fraction


def qh_monomial(j: int, k: int, m: int, c: Fraction | int = 1) -> SparseLaurent:
    """c q^j hbar^k e^{-m w}."""
    if m < 0:
        raise ValueError("e^{-w} powers must be non-negative")
    return SparseLaurent(3, {(j, k, m): c})


def d_dw(f: SparseLaurent) -> SparseLaurent:
    """Differentiation in w: E^m has eigenvalue -m."""
    return -(qh_monomial(0, 0, 1) * f.diff(2))


def d_dh(f: SparseLaurent) -> SparseLaurent:
    """Differentiation in hbar; q^j contributes j q^j since q' = q."""
    return qh_monomial(1, 0, 0) * f.diff(0) + f.diff(1)


def shift_w(f: SparseLaurent) -> SparseLaurent:
    """The shift w -> w - hbar: E^m picks up q^m."""
    return f.relabel(3, lambda k: (k[0] + k[2], k[1], k[2]))


def op_p(f: SparseLaurent) -> SparseLaurent:
    """P = hbar d/dw + e^{-w} shift."""
    return qh_monomial(0, 1, 0) * d_dw(f) + qh_monomial(0, 0, 1) * shift_w(f)


def op_q(f: SparseLaurent) -> SparseLaurent:
    """Q = (hbar/2) d2/dw2 + (1 + hbar/2) d/dw - hbar d/dhbar."""
    half_h = qh_monomial(0, 1, 0, Q(1, 2))
    return (half_h * d_dw(d_dw(f)) + d_dw(f) + half_h * d_dw(f)
            - qh_monomial(0, 1, 0) * d_dh(f))


def zhou_term(m: int) -> SparseLaurent:
    """a_m = q^{m(m-1)/2} hbar^{-m} e^{-m w}."""
    return qh_monomial(m * (m - 1) // 2, -m, m)


def zhou_series_checks(m_max: int) -> list[str]:
    """Termwise verification of the explicit partition-function expansion.

    Checks, for every m <= m_max: the term recursion
    a_{m+1} = q^m a_m e^{-w} / hbar, the termwise cancellation in the
    difference-differential equation (grouped at e^{-(m+1)w}), and the
    termwise heat bracket.
    """
    failures: list[str] = []
    for m in range(m_max + 1):
        if zhou_term(m + 1) != qh_monomial(m, -1, 1) * zhou_term(m):
            failures.append(f"term recursion at order {m + 1}")
        # hbar d/dw of a_{m+1}/(m+1)! plus the shift term from a_m/m!
        diff_part = (qh_monomial(0, 1, 0, Q(1, factorial(m + 1))) * d_dw(zhou_term(m + 1))
                     + qh_monomial(0, 0, 1, Q(1, factorial(m))) * shift_w(zhou_term(m)))
        if not diff_part.is_zero():
            failures.append(f"difference equation at order {m + 1}")
        if not op_q(zhou_term(m)).is_zero():
            failures.append(f"heat bracket at m={m}")
    return failures


def pq_commutator_check(m_max: int, k_range: int = 3) -> list[str]:
    """([P,Q] - P) f = 0 on every basis element hbar^k e^{-m w}."""
    failures: list[str] = []
    for m in range(m_max + 1):
        for k in range(-k_range, k_range + 1):
            f = qh_monomial(0, k, m)
            resid = op_p(op_q(f)) - op_q(op_p(f)) - op_p(f)
            if not resid.is_zero():
                failures.append(f"m={m}, k={k}")
    return failures

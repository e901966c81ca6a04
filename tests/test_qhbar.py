"""The exact q-hbar ring and its operator checks."""

from fractions import Fraction as Q

from eocurves import qhbar
from eocurves.qhbar import (
    d_dh,
    d_dw,
    op_p,
    op_q,
    pq_commutator_check,
    qh_monomial,
    shift_w,
    zhou_series_checks,
    zhou_term,
)


def test_ring_basics():
    a = qh_monomial(1, -2, 3, Q(1, 2))
    b = qh_monomial(0, 1, 1, Q(4))
    assert (a + b) - b == a
    assert (a * b).terms == {(1, -1, 4): Q(2)}
    assert (a - a).is_zero()


def test_operator_actions():
    f = qh_monomial(0, 0, 3)  # e^{-3w}
    assert d_dw(f).terms == {(0, 0, 3): Q(-3)}
    assert shift_w(f).terms == {(3, 0, 3): Q(1)}
    g = qh_monomial(2, 2, 0)  # q^2 hbar^2
    assert d_dh(g).terms == {(2, 2, 0): Q(2), (2, 1, 0): Q(2)}


def test_p_on_constant():
    one = qh_monomial(0, 0, 0)
    assert op_p(one).terms == {(0, 0, 1): Q(1)}  # just e^{-w}


def test_commutator_on_first_mode_by_hand():
    """[P,Q] f = P f for f = e^{-w}, both sides assembled step by step."""
    f = qh_monomial(0, 0, 1)
    h, e = qh_monomial(0, 1, 0), qh_monomial(0, 0, 1)
    pf = h * d_dw(f) + e * shift_w(f)
    qf = (h * d_dw(d_dw(f)) * Q(1, 2) + d_dw(f)
          + h * d_dw(f) * Q(1, 2) - h * d_dh(f))
    pqf = op_p(qf)
    qpf = op_q(pf)
    assert pqf - qpf == pf


def test_zhou_terms():
    assert zhou_term(0) == qh_monomial(0, 0, 0)
    assert zhou_term(1).terms == {(0, -1, 1): Q(1)}
    assert zhou_term(3).terms == {(3, -3, 3): Q(1)}


def test_zhou_checks_pass():
    assert zhou_series_checks(20) == []


def test_zhou_corrupted_exponent(monkeypatch):
    monkeypatch.setattr(qhbar, "zhou_term",
                        lambda m: qh_monomial(m * (m + 1) // 2, -m, m))
    failures = zhou_series_checks(5)
    assert failures
    assert any("order 1" in f for f in failures)


def test_pq_commutator():
    assert pq_commutator_check(10, 3) == []


def op_q_without_half_h(f):
    """Q with the hbar/2 piece of its first-order term dropped."""
    h = qh_monomial(0, 1, 0)
    return h * d_dw(d_dw(f)) * Q(1, 2) + d_dw(f) - h * d_dh(f)


def test_pq_commutator_detects_fault(monkeypatch):
    monkeypatch.setattr(qhbar, "op_q", op_q_without_half_h)
    assert pq_commutator_check(3, 2)

"""Transport hierarchy: operator build, corrections, third-path solve."""

from fractions import Fraction as Q
from math import factorial

import pytest

from eocurves import catalan as cat
from eocurves import hurwitz as hur
from eocurves import wkb
from eocurves.errors import InsufficientData
from eocurves.ratfunc import RatFunc


def test_identity_at_order_zero():
    sp = wkb.model_s_primes("catalan", 0)
    ops = wkb.build_d_operators(0, sp, wkb.curve_symbol("catalan").dz_factor)
    assert len(ops) == 1
    assert ops[0].coeffs == {0: RatFunc.const(1, "z")}


def test_first_operator_shape():
    curve = wkb.curve_symbol("catalan")
    sp = wkb.model_s_primes("catalan", 1)
    ops = wkb.build_d_operators(1, sp, curve.dz_factor)
    s0pp = curve.dz_factor * sp[0].diff()
    assert ops[1].coeffs[2] == s0pp * Q(1, 2)
    assert ops[1].coeffs[1] == sp[1]
    assert max(ops[1].coeffs) == 2


def test_second_operator_top_coefficient():
    curve = wkb.curve_symbol("catalan")
    sp = wkb.model_s_primes("catalan", 2)
    ops = wkb.build_d_operators(2, sp, curve.dz_factor)
    s0pp = curve.dz_factor * sp[0].diff()
    assert ops[2].coeffs[4] == s0pp * s0pp * Q(1, 8)


def test_operator_expansion_matches_composition_sum():
    """exp of the graded sum equals the direct sum over ordered compositions."""
    curve = wkb.curve_symbol("catalan")
    order = 4
    sp = wkb.model_s_primes("catalan", order)
    ops = wkb.build_d_operators(order, sp, curve.dz_factor)

    towers = [wkb._derivative_tower(sp[m], curve.dz_factor, order + 2 - m)
              for m in range(order + 1)]

    def little(n):
        return wkb.YPolyOperator({
            r: towers[n + 1 - r][r - 1] * Q(1, factorial(r))
            for r in range(1, n + 2)})

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for r in range(order + 1):
        direct = wkb.YPolyOperator.zero()
        for comp in compositions(r):
            term = wkb.YPolyOperator.identity()
            for n in comp:
                term = term * little(n)
            direct = direct + term.scale(Q(1, factorial(len(comp))))
        delta = ops[r] + direct.scale(Q(-1))
        assert delta.is_zero(), f"operator mismatch at order {r}"


def test_degree_bound():
    for model in ("catalan", "hurwitz"):
        curve = wkb.curve_symbol(model)
        sp = wkb.model_s_primes(model, 4)
        for r, op in enumerate(wkb.build_d_operators(4, sp, curve.dz_factor)):
            assert max(op.coeffs, default=0) <= 2 * r


def test_apply_identity_gives_zero():
    for model in ("catalan", "hurwitz"):
        curve = wkb.curve_symbol(model)
        assert wkb.apply_to_symbol(wkb.YPolyOperator.identity(), curve).is_zero()


def test_first_correction_vanishes():
    for model in ("catalan", "hurwitz"):
        curve = wkb.curve_symbol(model)
        sp = wkb.model_s_primes(model, 1)
        ops = wkb.build_d_operators(1, sp, curve.dz_factor)
        assert wkb.apply_to_symbol(ops[1], curve).is_zero()


@pytest.mark.parametrize("model", ["catalan", "hurwitz"])
def test_corrections_vanish_to_order_five(model):
    corrections = wkb.recover_corrections(model, 5)
    assert len(corrections) == 5
    assert all(c.is_zero() for c in corrections)


def test_corrections_detect_fault(monkeypatch):
    sp = wkb.model_s_primes("catalan", 4)
    sp[3] = sp[3] + RatFunc.x("z")
    monkeypatch.setattr(wkb, "model_s_primes", lambda model, m_max: sp)
    corr = wkb.recover_corrections("catalan", 4)
    assert corr[0].is_zero() and corr[1].is_zero()
    assert not corr[2].is_zero()


def test_insufficient_data():
    sp = wkb.model_s_primes("catalan", 1)
    with pytest.raises(InsufficientData):
        wkb.build_d_operators(3, sp, wkb.curve_symbol("catalan").dz_factor)


def test_catalan_s_prime_closed_forms():
    s1 = wkb.s_prime_from_hierarchy("catalan", 1)
    assert s1 == RatFunc({3: -1}, 2, 2, "z")  # -z^3 / (z^2 - 1)^2
    s2 = wkb.s_prime_from_hierarchy("catalan", 2)
    assert s2 == RatFunc({5: 3, 7: 2}, 5, 5, "z")
    s3 = wkb.s_prime_from_hierarchy("catalan", 3)
    assert s3 == RatFunc({7: -15, 9: -35, 11: -10}, 8, 8, "z")


def test_hurwitz_s_prime_closed_form():
    # pinned by the count expansions: x dS_2/dx = z^2 (4 + 11 z)/(24 (1-z)^5)
    s2 = wkb.s_prime_from_hierarchy("hurwitz", 2)
    assert s2 == RatFunc({2: 4, 3: 11}, 5, 0, "z") * Q(-1, 24)


@pytest.mark.parametrize("model", ["catalan", "hurwitz"])
def test_first_s_prime_from_hierarchy(model):
    # the order-1 transport equation alone gives S_1', not 0
    s1 = wkb.s_prime_from_hierarchy(model, 1)
    assert s1 == wkb.model_s_primes(model, 1)[1]
    assert not s1.is_zero()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_triple_path_agreement(m):
    mine = wkb.s_prime_from_hierarchy("catalan", m)
    other = cat.to_z(cat.ddx_factor() * cat.s_coefficient_assembled(m).diff())
    assert mine == other
    mineh = wkb.s_prime_from_hierarchy("hurwitz", m)
    otherh = hur.to_z(hur.s_prime_logx(m))
    assert mineh == otherh


def test_on_shell_towers():
    ccat = wkb.curve_symbol("catalan")
    z = Q(1, 3)
    assert ccat.tower(1).eval(z) == 1 / z - z
    assert ccat.tower(2).eval(z) == 2
    assert ccat.tower(3).is_zero()
    chur = wkb.curve_symbol("hurwitz")
    assert chur.tower(1).eval(z) == z - 1
    for r in (2, 3, 5):
        assert chur.tower(r).eval(z) == z

"""Symmetric-function layer: characters, cut-and-join, tau expansion."""

from fractions import Fraction as Q
from math import factorial

import pytest

from eocurves import schur
from eocurves.errors import SizeMismatch
from eocurves.laurent import SparseLaurent


def test_dimensions():
    for m in range(1, 7):
        assert schur.dimension((m,)) == 1
        assert schur.dimension((1,) * m) == 1
    assert schur.dimension((2, 1)) == 2
    assert schur.dimension((3, 2)) == 5
    assert schur.dimension(()) == 1


def test_characters_small_table():
    # the full character table of S_3
    table = {
        ((3,), (3,)): 1, ((3,), (2, 1)): 1, ((3,), (1, 1, 1)): 1,
        ((2, 1), (3,)): -1, ((2, 1), (2, 1)): 0, ((2, 1), (1, 1, 1)): 2,
        ((1, 1, 1), (3,)): 1, ((1, 1, 1), (2, 1)): -1, ((1, 1, 1), (1, 1, 1)): 1,
    }
    for (mu, lam), value in table.items():
        assert schur.character(mu, lam) == value
    assert schur.character((1, 1), (2,)) == -1


def test_character_size_mismatch():
    with pytest.raises(SizeMismatch):
        schur.character((2, 1), (2,))


def test_dim_is_character_at_identity():
    for d in range(1, 7):
        for mu in schur.partitions_of(d):
            assert schur.dimension(mu) == schur.character(mu, (1,) * d)


def test_burnside():
    for d in range(1, 7):
        # sum of (dim mu)^2 over |mu| = d is |S_d|
        total = sum(schur.dimension(mu) ** 2 for mu in schur.partitions_of(d))
        assert total == factorial(d)


def test_orthogonality():
    for d in range(1, 7):
        ps = schur.partitions_of(d)
        for a in ps:
            for b in ps:
                tot = sum(Q(schur.character(a, l) * schur.character(b, l),
                            schur.z_order(l)) for l in ps)
                assert tot == (1 if a == b else 0)


def test_schur_expansions():
    p = schur.p_monomial
    assert schur.schur_in_p((1,)) == p((1,), 1)
    assert schur.schur_in_p((2,)) == p((2,), 2, Q(1, 2)) + p((1, 1), 2, Q(1, 2))
    assert schur.schur_in_p((1, 1)) == p((2,), 2, Q(-1, 2)) + p((1, 1), 2, Q(1, 2))
    # slot 0 is the power of s, slot i the multiplicity of p_i
    assert schur.schur_in_p((2,)).terms == {(0, 0, 1): Q(1, 2), (0, 2, 0): Q(1, 2)}
    assert schur.schur_in_p((2,), 4) == p((2,), 4, Q(1, 2)) + p((1, 1), 4, Q(1, 2))


def test_shifted_power_sums():
    for m in range(1, 6):
        assert schur.shifted_power_sum(2, (m,)) == m * (m - 1)
    assert schur.shifted_power_sum(2, (1, 1)) == -2
    assert schur.shifted_power_sum(3, ()) == 0
    for d in range(1, 9):
        for mu in schur.partitions_of(d):
            contents = sum(j - i for i, row in enumerate(mu) for j in range(row))
            assert schur.shifted_power_sum(2, mu) == 2 * contents


def test_cutjoin_basic():
    assert schur.cutjoin_apply(schur.p_monomial((1,), 1)).is_zero()
    s2 = schur.schur_in_p((2,))
    assert schur.cutjoin_apply(s2) == s2 * 1  # eigenvalue p_2[(2)]/2 = 1


@pytest.mark.parametrize("d", range(7))
def test_eigenvalue_identity(d):
    for mu in schur.partitions_of(d):
        smu = schur.schur_in_p(mu)
        lhs = schur.cutjoin_apply(smu)
        rhs = smu * (schur.shifted_power_sum(2, mu) / 2)
        assert (lhs - rhs).is_zero()


def test_h_series_coefficients():
    H = schur.h_series(6, 6)
    assert H.terms.get((0, 1, 0, 0, 0, 0, 0)) == 1  # p_1
    assert H.terms.get((1, 0, 1, 0, 0, 0, 0)) == Q(1, 2)  # s p_2
    assert H.terms.get((3, 0, 1, 0, 0, 0, 0)) == Q(1, 12)  # s^3 p_2
    assert H == schur.truncate(H, 6, 6)


def test_tau_expansion_weight_one():
    res = schur.tau_expansion_residual(1, 1)
    assert res.is_zero()


def test_tau_expansion_full():
    assert schur.tau_expansion_residual(6, 6).is_zero()


def test_heat_consistency():
    assert schur.heat_consistency_residual(6, 6).is_zero()


def test_cauchy():
    assert schur.cauchy_residual(5).is_zero()
    assert schur.cauchy_restriction_residual(5).is_zero()


def test_cauchy_weight_one():
    assert schur.cauchy_residual(1).is_zero()


def test_principal_collapse():
    assert schur.principal_collapse_check(8) == []
    # two-row partitions die under the one-variable evaluation
    sigma = sum(Q(schur.character((1, 1), lam), schur.z_order(lam))
                for lam in schur.partitions_of(2))
    assert sigma == 0


def test_cutjoin_is_linear_and_weight_preserving():
    import random
    rng = random.Random(11)
    for _ in range(20):
        def randpoly():
            poly = SparseLaurent.zero(7)
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 6)
                lam = random.Random(rng.random()).choice(schur.partitions_of(d))
                poly = poly + schur.p_monomial(lam, 6, Q(rng.randint(-5, 5), rng.randint(1, 4)))
            return poly

        f, g = randpoly(), randpoly()
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = schur.cutjoin_apply(f + g * c)
        rhs = schur.cutjoin_apply(f) + schur.cutjoin_apply(g) * c
        assert (lhs - rhs).is_zero()
        out = schur.cutjoin_apply(f)
        for key in out.terms:
            assert any(schur.weight(key, 6) == schur.weight(src, 6) for src in f.terms)


def test_tau_and_heat_see_one_wrong_hurwitz_number(monkeypatch):
    from eocurves import report
    true_number = schur.hurwitz_number

    def wrong(g, n, mu):
        h = true_number(g, n, mu)
        return h + Q(1, 7) if (g, tuple(mu)) == (1, (2, 1)) else h

    monkeypatch.setattr(schur, "hurwitz_number", wrong)
    assert not schur.tau_expansion_residual(6, 6).is_zero()
    assert not schur.heat_consistency_residual(6, 6).is_zero()
    assert report.check_schur_tau(report.RunConfig())[0] is False


def test_cauchy_sees_one_wrong_character(monkeypatch):
    true_character = schur.character

    def wrong(mu, lam):
        chi = true_character(mu, lam)
        return chi + 1 if (tuple(mu), tuple(lam)) == ((2, 1), (2, 1)) else chi

    monkeypatch.setattr(schur, "character", wrong)
    assert not schur.cauchy_residual(5).is_zero()

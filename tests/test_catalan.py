"""Catalan model: counts, free energies, WKB coefficients, quantum curve."""

from fractions import Fraction as Q
from itertools import combinations_with_replacement

import pytest

import brute_force
from eocurves import catalan as cat
from eocurves import oracles, report, shared
from eocurves.errors import AsymmetricResult, ExactDivisionError, InvalidProfile
from eocurves.laurent import SparseLaurent
from eocurves.report import RunConfig
from eocurves.ratfunc import RatFunc


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_base_sequence_is_catalan():
    for m, c in enumerate(CATALAN):
        assert cat.catalan_count(0, 1, [2 * m]) == c


def test_odd_degree_vanishes():
    assert cat.catalan_count(0, 1, [3]) == 0
    assert cat.catalan_count(1, 2, [3, 4]) == 0


def test_invalid_profile():
    with pytest.raises(InvalidProfile):
        cat.catalan_count(0, 0, [])
    with pytest.raises(InvalidProfile):
        cat.catalan_count(0, 1, [-2])


def test_one_vertex_counts_match_pairing_oracle():
    for g in (0, 1, 2):
        for m in (1, 2, 3, 4):
            expected = brute_force.one_vertex_map_count(g, 2 * m)
            assert cat.catalan_count(g, 1, [2 * m]) == expected


def test_several_vertex_counts_match_brute_force():
    # every profile with 2 or 3 positive degrees and |mu| <= 10, so the
    # loop's a = b term (mu1 even) and repeated parts among the other
    # vertices are both met; no genus above 2 has a graph here
    profiles = [mu for n in (2, 3) for mu in combinations_with_replacement(range(9, 0, -1), n)
                if sum(mu) % 2 == 0 and sum(mu) <= 10]
    assert len(profiles) == 32
    for mu in profiles:
        counts = brute_force.arrowed_graphs_by_genus(mu)
        assert max(counts) <= 2
        for g in (0, 1, 2):
            assert cat.catalan_count(g, len(mu), mu) == counts.get(g, 0), (g, mu)


def test_two_vertex_single_edge():
    # one edge joining two labeled vertices
    assert cat.catalan_count(0, 2, [1, 1]) == 1


def test_dessin_numbers():
    assert brute_force.dessin_number(0, 1, [2]) == Q(1, 2)
    assert brute_force.dessin_number(0, 1, [4]) == Q(1, 2)
    assert brute_force.dessin_number(1, 1, [4]) == Q(1, 4)
    # closed form D_{0,1}(2m) = binom(2m, m) / (2m (m+1))
    from math import comb
    for m in range(1, 9):
        assert brute_force.dessin_number(0, 1, [2 * m]) == Q(comb(2 * m, m), 2 * m * (m + 1))


def test_count_integrality_and_weight_relation():
    import random
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 3)
        mu = [rng.randint(1, 6) for _ in range(n)]
        g = rng.randint(0, 2)
        c = cat.catalan_count(g, n, mu)
        assert isinstance(c, int) and c >= 0
        prod = 1
        for m in mu:
            prod *= m
        assert brute_force.dessin_number(g, n, mu) * prod == c


def test_count_symmetric_in_vertices():
    assert cat.catalan_count(1, 2, [2, 6]) == cat.catalan_count(1, 2, [6, 2])
    assert cat.catalan_count(0, 3, [1, 2, 3]) == cat.catalan_count(0, 3, [3, 1, 2])


# -- curve inversion ----------------------------------------------------------

def test_curve_inversion(monkeypatch):
    assert cat.curve_inversion_check(5) is None
    assert cat.curve_inversion_check(1) is None
    true_count = cat.catalan_count

    def corrupt_c2(g, n, mu):  # C_2 = 2 replaced by 3
        return 3 if list(mu) == [4] else true_count(g, n, mu)

    monkeypatch.setattr(cat, "catalan_count", corrupt_c2)
    assert cat.curve_inversion_check(4) == -3


# -- free energies ------------------------------------------------------------

LEVELS = [(1, 1), (0, 3), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1)]


def test_free_energy_one_one_closed_form():
    fe = cat.free_energy(1, 1)
    expected = {(-3,): Q(-1, 384), (-1,): Q(3, 128), (0,): Q(1, 24),
                (1,): Q(3, 128), (3,): Q(-1, 384)}
    assert fe.terms == expected


def test_free_energy_three_point_closed_form():
    fe = cat.free_energy(0, 3)
    for pt in ([Q(2), Q(3), Q(5)], [Q(-3), Q(7), Q(2)], [Q(5, 2), Q(1, 3), Q(4)]):
        t1, t2, t3 = pt
        expected = -Q(1, 16) * (t1 + 1) * (t2 + 1) * (t3 + 1) * (1 + 1 / (t1 * t2 * t3))
        assert brute_force.eval_all(fe, pt) == expected


@pytest.mark.parametrize("g,n", LEVELS)
def test_free_energy_symmetry_and_vanishing(g, n):
    fe = cat.free_energy(g, n)
    assert fe.is_symmetric()
    assert fe.eval_partial(0, Q(-1)).is_zero()


@pytest.mark.parametrize("g,n,xs,cap", [
    (1, 1, [10.0], 60),
    (0, 3, [10.0, 11.0, 12.0], 60),
    (0, 4, [10.0, 11.0, 12.0, 13.0], 32),
    (1, 2, [10.0, 11.0], 40),
    (2, 1, [10.0], 40),
    (0, 5, [10.0, 10.5, 11.0, 11.5, 12.0], 26),
    (1, 3, [10.0, 11.0, 12.0], 30),
])
def test_free_energy_matches_laplace_sum(g, n, xs, cap):
    exact = shared.free_energy_float(cat, g, n, xs)
    direct = shared.laplace_probe_sum(cat, g, n, xs, cap)
    assert abs(exact - direct) <= 1e-8 * abs(direct)


# F(0,3) plus one monomial, set in the memo, where free_energy never asserts
# its symmetry.  F(0,4) reads F(0,3) only through d/dt_1 in its pairing
# terms, and the one asymmetric term that does not clear v0 + v1 must raise
# at its own division, not be carried along to one naming another factor.
@pytest.mark.parametrize("exps,error,message", [
    ((1, 2, 0), AsymmetricResult, r"\(0,4\) failed symmetry"),
    ((2, 1, 0), ExactDivisionError, r"v0 \+ v1"),
    ((1, 0, 0), AsymmetricResult, r"\(0,4\) failed symmetry"),
    # blind spot: a term free of t_1 has zero d/dt_1, so it never reaches the
    # pairing terms, and F(0,4) is built right on the forged F(0,3)
    ((0, 1, 2), None, None),
    ((0, 0, 1), None, None),
], ids=["120", "210", "100", "012", "001"])
def test_forged_three_point_free_energy(monkeypatch, exps, error, message):
    true_f04 = cat.free_energy(0, 4)
    memo = {(0, 3): cat.free_energy(0, 3) + SparseLaurent(3, {exps: Q(1)})}
    monkeypatch.setattr(cat, "_fe_memo", memo)
    if error is None:
        assert cat.free_energy(0, 4) == true_f04
        assert set(memo) == {(0, 3), (0, 4)}
    else:
        with pytest.raises(error, match=message):
            cat.free_energy(0, 4)
        assert set(memo) == {(0, 3)}  # nothing is memoized on a failure


# float.hex() of each probe sum, keyed by (g, n, cap): the probe adds the
# ordered profiles in one fixed order, so a change to it must keep every bit
LAPLACE_HEX = {
    (1, 1, 60): "0x1.c0ef2ccfba444p-16",
    (0, 3, 60): "0x1.cfe7db219ec0dp-13",
    (0, 4, 32): "0x1.5164b85413f67p-17",
    (1, 2, 40): "0x1.7eaeb3c136144p-19",
    (0, 5, 26): "0x1.455636c7d1facp-20",
    (1, 3, 30): "0x1.4b4b30777a1fdp-22",
}


@pytest.mark.parametrize("g,n,xs,cap", cat.LAPLACE_PROBES + [
    (0, 4, [10.0, 11.0, 12.0, 13.0], 32),
    (1, 2, [10.0, 11.0], 40),
    (0, 5, [10.0, 10.5, 11.0, 11.5, 12.0], 26),
    (1, 3, [10.0, 11.0, 12.0], 30),
])
def test_laplace_probe_weight_is_exact(g, n, xs, cap):
    # the memo read over int / int rounds like float(Fraction): the sums
    # agree to the last bit with Fraction weights
    direct = shared.laplace_probe_sum(cat, g, n, xs, cap)
    assert direct.hex() == LAPLACE_HEX[g, n, cap]
    assert direct == shared.laplace_sum_float(
        lambda g, key: float(brute_force.dessin_number(g, len(key), key)), -1, g, n, xs, cap)


def test_laplace_check_detects_corrupt_count(count_memos):
    assert report.laplace_check("catalan")(RunConfig())[0]
    # C_{1,1}(4) = 1 replaced by 2 where the probe reads it, as a poisoned
    # cache would; the fixture puts the memo back, so nothing derived from it
    # outlives the test
    cat._count_memo[1][shared.profile_id((4,))] = 2
    ok, residual = report.laplace_check("catalan")(RunConfig())
    assert not ok
    assert residual.startswith("max relative error")
    assert residual.endswith(" at (1,1)")


def test_euler_characteristic_specialization():
    for g, n in [(1, 1), (0, 3), (1, 2), (2, 1)]:
        value = cat.principal_ratfunc(cat.free_energy(g, n)).eval(Q(1))
        assert value == (-1) ** n * oracles.moduli_euler_characteristic(g, n)


# -- WKB coefficients -----------------------------------------------------------

def s_printed_z(m: int) -> RatFunc:
    """The closed z-forms of S_2..S_4 (typo-resolved denominators)."""
    # RatFunc(terms, k, k, "z") is over (z - 1)^k (z + 1)^k = (z^2 - 1)^k
    if m == 2:  # z^4 (9 + z^2) / (12 (1 - z^2)^3)
        return RatFunc({4: 9, 6: 1}, 3, 3, "z") * Q(-1, 12)
    if m == 3:
        return RatFunc({6: 5, 8: 5}, 6, 6, "z") * Q(1, 2)
    num = [-4725, -12879, -4524, 36, -9, 1]
    return RatFunc(dict(zip(range(8, 19, 2), num)), 9, 9, "z") * Q(1, 360)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_s_coefficient_cross_paths_and_table(m):
    assembled = cat.s_coefficient_assembled(m)
    recursive = cat.s_coefficient_recursive(m)
    assert assembled == recursive
    assert cat.to_z(assembled) == s_printed_z(m)
    assert assembled.eval(Q(-1)) == 0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_s_polynomiality_in_s(m):
    p = cat.s_polynomial(cat.s_coefficient_assembled(m))
    assert len(p) - 1 <= 3 * m - 3


def count_kernel_calls(monkeypatch, work) -> tuple[int, int]:
    """The SparseLaurent products and sums that ``work()`` makes."""
    calls = {"mul": 0, "plus": 0}
    mul, plus = SparseLaurent.__mul__, SparseLaurent._plus

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_plus(self, other, sign):
        calls["plus"] += 1
        return plus(self, other, sign)

    with monkeypatch.context() as patch:
        patch.setattr(SparseLaurent, "__mul__", counted_mul)
        patch.setattr(SparseLaurent, "_plus", counted_plus)
        work()
    return calls["mul"], calls["plus"]


def test_layer2_work_counts(monkeypatch):
    # a work count no machine speed moves: the Moebius substitution runs
    # Horner's rule on ints and cancels poles by numerator sums, so moving S_4
    # to z makes no product or sum; the stable terms of dF_{0,5}/dt_1 are
    # added in one pass, leaving the pairing difference as the one sum
    s4 = cat.s_coefficient_assembled(4)
    assert count_kernel_calls(monkeypatch, lambda: cat.to_z(s4)) == (0, 0)
    cat.free_energy(0, 5)
    assert count_kernel_calls(monkeypatch, lambda: cat._recursion_rhs(0, 5)) == (16, 1)


def test_x_frame_primes_are_kept_and_handed_out_as_copies():
    cat.clear_caches()
    fresh = cat.base_s_primes(2)
    cat.clear_caches()
    cat.base_s_primes(5)
    kept = cat.base_s_primes(2)
    assert kept == fresh
    # term for term, in term order, not only equal as rational functions
    assert [list(p.num.num.items()) for p in kept] == [list(p.num.num.items()) for p in fresh]
    kept.append(RatFunc.zero("t"))
    kept[0] = RatFunc.zero("t")
    assert cat.base_s_primes(2) == fresh
    assert len(cat.base_s_primes(5)) == 6
    assert len(cat.base_s_primes(0)) == 2


# S_m as a polynomial in s = z^2/(z^2-1), coefficients low to high
S_IN_S = {
    2: ["0", "0", "3/4", "-5/6"],
    3: ["0", "0", "0", "-5/2", "10", "-25/2", "5"],
    4: ["0", "0", "0", "0", "105/8", "-507/5", "3443/12", "-767/2", "985/4", "-1105/18"],
}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_s_polynomial_coefficients(m):
    p = cat.s_polynomial(cat.s_coefficient_assembled(m))
    assert p == [Q(c) for c in S_IN_S[m]]


def test_schrodinger_residuals_vanish():
    res = cat.schrodinger_residuals(3)
    assert len(res) == 5
    assert all(r.is_zero() for r in res)


def test_schrodinger_residual_detects_fault(monkeypatch):
    true_s = cat.s_coefficient_assembled
    bad = true_s(2) + RatFunc.x("t")
    monkeypatch.setattr(cat, "s_coefficient_assembled",
                        lambda m: bad if m == 2 else true_s(m))
    res = cat.schrodinger_residuals(3)
    assert not res[2].is_zero()
    assert res[0].is_zero() and res[1].is_zero()


def test_s1_seed_forms():
    # dS_1/dx = -(t^2-1)(t+1)^2/(16 t^2); dS_0/dx = -z
    t = Q(7, 3)
    z = (t + 1) / (t - 1)
    assert cat.s0_prime_x().eval(t) == -z
    assert cat.s1_prime_x().eval(t) == -(t * t - 1) * (t + 1) ** 2 / (16 * t * t)

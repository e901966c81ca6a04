"""Hurwitz model: cut-and-join counts, xi-basis reconstruction, WKB layer."""

import math
from fractions import Fraction as Q
from itertools import permutations

import pytest

import brute_force
from eocurves import hurwitz as hur
from eocurves import report, shared
from eocurves.errors import ExactDivisionError, InvalidProfile, NonzeroResidue
from eocurves.laurent import SparseLaurent
from eocurves.report import RunConfig
from eocurves.ratfunc import RatFunc, integrate_no_log, substitute_mobius
from eocurves.series import TruncatedSeries


def test_base_values():
    assert hur.hurwitz_number(0, 1, [3]) == Q(1, 2)
    assert hur.hurwitz_number(0, 2, [1, 1]) == Q(1, 2)
    assert hur.hurwitz_number(1, 1, [2]) == Q(1, 12)
    assert hur.hurwitz_number(1, 1, [1]) == 0
    # one-pole closed form d^{d-2}/d!
    for d in range(1, 8):
        assert hur.hurwitz_number(0, 1, [d]) == Q(d ** (d - 2) if d > 1 else 1,
                                                  math.factorial(d))
    # two-pole closed form
    for a in range(1, 5):
        for b in range(1, 5):
            expect = Q(a ** a, math.factorial(a)) * Q(b ** b, math.factorial(b)) / (a + b)
            assert hur.hurwitz_number(0, 2, [a, b]) == expect


def test_large_genus_keeps_no_factorial_row():
    # r! d! past MAX_BRANCH_POINTS is formed for the one call: a count with
    # r = 402 (H_201((1)) = 0) grows no process-wide row, so neither does a
    # count at a huge genus
    g = hur.MAX_BRANCH_POINTS // 2 + 1
    before = list(hur._factorials)
    assert hur.hurwitz_number(g, 1, [1]) == 0
    assert hur._factorials == before
    assert len(before) <= hur.MAX_BRANCH_POINTS + 2


def test_uncuttable_profile_builds_no_binomial_row():
    # a profile of ones has no pole to cut, so the cut's binomial rows of
    # r - 1 = 2999 and d are not built for the zero it returns
    before = hur._binomial_row.cache_info().currsize
    assert hur.hurwitz_number(1500, 1, [1]) == 0
    assert hur._binomial_row.cache_info().currsize == before


def test_against_monodromy_oracle():
    # (2, 2) and (2, 1, 1) repeat a part, so the split term's labeled ways
    # and binomial weights are checked against the permutation count too;
    # the genus-1 cuts of 3 and 4 take both a doubled alpha < beta term and
    # the alpha = beta one
    for g, mu in [(0, (3,)), (0, (1, 1)), (0, (2,)), (1, (2,)), (0, (1, 1, 1)),
                  (0, (2, 1)), (1, (1, 1)), (0, (4,)), (0, (2, 2)), (0, (2, 1, 1)),
                  (1, (3,)), (1, (2, 1)), (1, (4,))]:
        got = hur.hurwitz_number(g, len(mu), list(mu))
        assert got == brute_force.hurwitz_by_factorizations(g, mu), (g, mu)


def test_labeled_conversion():
    assert hur.labeled_hurwitz(1, [2]) == Q(1, 2)
    assert hur.labeled_hurwitz(0, [1, 1, 1]) == 4
    assert hur.labeled_hurwitz(0, [1]) == 1
    for g, mu in [(0, (2, 1)), (1, (3,))]:
        assert hur.labeled_hurwitz(g, mu) == \
            brute_force.labeled_hurwitz_by_factorizations(g, mu)


def test_invalid_profiles():
    with pytest.raises(InvalidProfile):
        hur.hurwitz_number(0, 1, [0])
    with pytest.raises(InvalidProfile):
        hur.hurwitz_number(0, 0, [])


def test_nonnegativity_and_weight():
    import random
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        mu = tuple(rng.randint(1, 5) for _ in range(n))
        g = rng.randint(0, 2)
        h = hur.hurwitz_number(g, n, mu)
        assert h >= 0
        r = 2 * g - 2 + n + sum(mu)
        aut = 1
        for v in set(mu):
            aut *= math.factorial(mu.count(v))
        assert hur.labeled_hurwitz(g, mu) * Q(aut, math.factorial(r)) == h


def test_xi_polynomials():
    assert hur.xi_polynomial(0).terms == {(0,): -1, (1,): 1}
    assert hur.xi_polynomial(1).terms == {(2,): -1, (3,): 1}
    assert hur.xi_polynomial(2).terms == {(3,): 2, (4,): -5, (5,): 3}
    for k in range(7):
        assert hur.xi_polynomial(k).arity == 1
        assert hur.xi_polynomial(k).total_degree() == 2 * k + 1
        assert hur.xi_polynomial(k).den == 1  # integer coefficients
        assert hur.xi_polynomial(k).eval_partial(0, Q(1)).is_zero()


def test_xi_frame_consistency():
    """x d/dx on the series side equals t^2(t-1) d/dt on the polynomial side."""
    order = 14
    t_series = TruncatedSeries(
        [Q(1)] + [Q(mu ** mu, math.factorial(mu)) for mu in range(1, order + 1)], "x")

    def compose(poly: SparseLaurent) -> TruncatedSeries:
        acc = TruncatedSeries([Q(0)] * (order + 1), "x")
        for c in reversed([poly.terms.get((e,), Q(0))
                           for e in range(poly.total_degree() + 1)]):
            acc = acc * t_series + TruncatedSeries(
                [c] + [Q(0)] * order, "x")
        return acc

    for k in range(7):
        lhs = compose(hur.xi_polynomial(k))
        # x d/dx acts diagonally on the x-series
        xd = TruncatedSeries([m * c for m, c in enumerate(lhs.coeffs)], "x")
        rhs = compose(hur.xi_polynomial(k + 1))
        assert xd.coeffs == rhs.coeffs


def test_elsv_tables():
    assert hur.elsv_coefficients(0, 3) == {(0, 0, 0): Q(1)}
    table = hur.elsv_coefficients(1, 1)
    assert table == {(1,): Q(1, 24), (0,): Q(-1, 24)}
    # consistency: predicted H_{1,1}(3) equals the recursion value
    predicted = Q(3 ** 3, math.factorial(3)) * (table[(1,)] * 3 + table[(0,)])
    assert predicted == hur.hurwitz_number(1, 1, [3])


def test_elsv_symmetry_of_coefficients():
    table = hur.elsv_coefficients(1, 2)
    for k in table:
        assert tuple(sorted(k, reverse=True)) == k


def test_free_energy_one_one():
    fe = hur.free_energy(1, 1)
    assert fe.terms == {(3,): Q(1, 24), (2,): Q(-1, 24), (1,): Q(-1, 24),
                        (0,): Q(1, 24)}
    assert brute_force.eval_all(fe, [Q(1)]) == 0


LEVELS = [(1, 1), (0, 3), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1)]


@pytest.mark.parametrize("g,n", LEVELS)
def test_free_energy_shape(g, n):
    fe = hur.free_energy(g, n)
    assert fe.is_symmetric()
    assert fe.eval_partial(0, Q(1)).is_zero()
    assert fe.total_degree() <= 6 * g - 6 + 3 * n
    assert all(all(e >= 0 for e in key) for key in fe.terms)


@pytest.mark.parametrize("g,n,ws,cap", [
    (0, 3, (3.0, 3.1, 3.2), 40),
    (1, 1, (3.0,), 40),
    (1, 2, (3.0, 3.1), 30),
    (0, 4, (3.0, 3.1, 3.2, 3.3), 28),
])
def test_free_energy_matches_laplace_sum(g, n, ws, cap):
    xs = [math.exp(-w) for w in ws]
    exact = shared.free_energy_float(hur, g, n, xs)
    direct = shared.laplace_probe_sum(hur, g, n, xs, cap)
    assert abs(exact - direct) <= 1e-8 * abs(direct)


@pytest.mark.parametrize("g,n,xs,cap", hur.LAPLACE_PROBES)
def test_laplace_probe_weight_is_exact(g, n, xs, cap):
    # the memo read over int / int rounds like float(Fraction): the sum
    # agrees to the last bit with Fraction weights, and with its pinned hex
    direct = shared.laplace_probe_sum(hur, g, n, xs, cap)
    assert direct.hex() == "0x1.ff6db3667c56bp-14"
    assert direct == shared.laplace_sum_float(
        lambda g, key: float(hur.hurwitz_number(g, len(key), key)), 1, g, n, xs, cap)


def test_laplace_check_detects_corrupt_count(count_memos):
    assert report.laplace_check("hurwitz")(RunConfig())[0]
    # N_0(1,1,1) doubled where the probe reads it, as a poisoned cache would;
    # the fixture puts the memo back, so nothing derived from it outlives the
    # test
    hur._h_memo[0][shared.profile_id((1, 1, 1))] *= 2
    ok, residual = report.laplace_check("hurwitz")(RunConfig())
    assert not ok
    assert residual.startswith("max relative error")
    assert residual.endswith(" at (0,3)")


@pytest.mark.parametrize("g,n", LEVELS)
def test_recursion_residual_vanishes(g, n):
    assert hur.fh_recursion_residual(g, n).is_zero()


def test_recursion_residual_detects_fault(monkeypatch):
    bad = SparseLaurent(1, {(3,): Q(1, 23), (2,): Q(-1, 23),
                            (1,): Q(-1, 24), (0,): Q(1, 24)})
    true_fe = hur.free_energy
    monkeypatch.setattr(hur, "free_energy",
                        lambda g, n: bad if (g, n) == (1, 1) else true_fe(g, n))
    res = hur.fh_recursion_residual(1, 1)
    assert not res.is_zero()


@pytest.mark.parametrize("key", [(3, 1, 1, 1), (1, 1, 0, 2)])
def test_recursion_residual_detects_paired_fault(monkeypatch, key):
    """A wrong F(0,4) reaches (0,5) through the per-pair difference quotients.

    The pair numerator vanishes on t_i = t_j whatever F(0,4) is, so the
    quotient still divides and the fault shows as a nonzero residual, not
    as an error.  F(0,4) enters only through the derivative in its first
    slot, so a corruption at (0,0,0,2) would be invisible here.
    """
    true_fe = hur.free_energy
    bad = true_fe(0, 4) + SparseLaurent(4, {key: Q(1, 7)})
    monkeypatch.setattr(hur, "free_energy",
                        lambda g, n: bad if (g, n) == (0, 4) else true_fe(g, n))
    assert not hur.fh_recursion_residual(0, 5).is_zero()


def test_three_point_residual_detects_symmetric_fault(monkeypatch):
    """A symmetric corruption of F(0,3) survives the sum over divisors.

    The (0,3) residual adds terms that clear their denominators only
    jointly; adding 1/7 to each t_i^2 t_j term of F(0,3) keeps it symmetric
    and leaves a nonzero residual, not an error.
    """
    keys = [tuple(2 if s == i else 1 if s == j else 0 for s in range(3))
            for i, j in permutations(range(3), 2)]
    true_fe = hur.free_energy
    bad = true_fe(0, 3) + SparseLaurent(3, {key: Q(1, 7) for key in keys})
    assert bad.is_symmetric()
    monkeypatch.setattr(hur, "free_energy",
                        lambda g, n: bad if (g, n) == (0, 3) else true_fe(g, n))
    assert len(hur.fh_recursion_residual(0, 3)) == 15


def test_three_point_residual_rejects_wrong_two_point_input(monkeypatch):
    # doubling the first term of d/dt_i F(0,2) leaves a sum that does not divide
    true_df = hur._d_f02_extended

    def doubled_first(*args):
        (num, divisors), *rest = true_df(*args)
        return [(num.scale(2), divisors), *rest]

    monkeypatch.setattr(hur, "_d_f02_extended", doubled_first)
    with pytest.raises(ExactDivisionError, match="remainder dividing by"):
        hur.fh_recursion_residual(0, 3)


def test_two_point_diagonal_formula():
    """The hard-coded pair-correlation diagonal against a series oracle."""
    order = 12
    t_series = TruncatedSeries(
        [Q(1)] + [Q(mu ** mu, math.factorial(mu)) for mu in range(1, order + 3)], "x")
    dt_dx = t_series.diff()
    dx_dt = dt_dx.reciprocal()
    # sum mu1 mu2 H(mu1,mu2) x^(mu1+mu2-2), then times (dx/dt)^2
    coeffs = [Q(0)] * (order + 1)
    for m1 in range(1, order + 3):
        for m2 in range(1, order + 3):
            k = m1 + m2 - 2
            if k <= order:
                coeffs[k] += m1 * m2 * hur.hurwitz_number(0, 2, [m1, m2])
    series = TruncatedSeries(coeffs, "x") * dx_dt * dx_dt
    # the closed form (3t^2+2t+1)/(12 t^4) как x-series
    t4inv = (t_series * t_series * t_series * t_series).reciprocal()
    tsq = t_series * t_series
    closed = (tsq * 3 + t_series * 2
              + TruncatedSeries([Q(1)] + [Q(0)] * (order + 2), "x")) * t4inv
    closed = closed * Q(1, 12)
    assert series.coeffs[:order + 1] == closed.coeffs[:order + 1]


def test_s_coefficients_against_counts():
    # truths pinned by the x^2..x^4 Laplace coefficients of the counts
    # RatFunc(terms, -2) is sum terms[e] t^e times (t - 1)^2
    assert hur.s_coefficient(2) == RatFunc({0: -3, 1: 5}, -2) * Q(1, 24)
    assert hur.s_coefficient(3) == RatFunc({2: 6, 3: -20, 4: 15}, -2) * Q(1, 48)
    s4 = hur.s_coefficient(4)
    assert s4.coefficients() == [Q(c) for c in [
        "0", "0", "0", "127/2880", "-3443/5760", "1781/640", "-3547/576", "511/72",
        "-1585/384", "1105/1152"]]
    assert len(s4.coefficients()) - 1 == 9
    assert s4.eval(Q(1)) == 0


def test_s_coefficient_series_matches_counts():
    """Low-order x-expansion of S_2 equals the direct weighted count sums."""
    s2 = hur.s_coefficient(2)
    order = 6
    t_series = TruncatedSeries(
        [Q(1)] + [Q(mu ** mu, math.factorial(mu)) for mu in range(1, order + 1)], "x")
    acc = TruncatedSeries([Q(0)] * (order + 1), "x")
    for c in reversed(s2.coefficients()):
        acc = acc * t_series + TruncatedSeries([c] + [Q(0)] * order, "x")
    direct = [Q(0)] * (order + 1)
    for total in range(2, order + 1):
        val = hur.hurwitz_number(1, 1, [total])
        direct[total] += val
        for m1 in range(1, total):
            for m2 in range(1, total - m1 + 1):
                m3 = total - m1 - m2
                if m3 >= 1:
                    direct[total] += hur.hurwitz_number(0, 3, [m1, m2, m3]) / 6
    assert acc.coeffs[:order + 1] == direct


def test_heat_residuals():
    res = hur.heat_residuals(3)
    assert all(r.is_zero() for r in res)
    assert hur.s0_quadratic_identity_residual().is_zero()


def test_heat_residual_detects_fault(monkeypatch):
    true_s = hur.s_coefficient
    bad = true_s(2) + RatFunc.x()  # S_2 + t
    monkeypatch.setattr(hur, "s_coefficient", lambda m: bad if m == 2 else true_s(m))
    res = hur.heat_residuals(3)
    assert res[0].is_zero()
    assert not res[1].is_zero()


# An earlier tabulation of x dS_m/dx (m = 2, 3, 4) on x = z e^{-z}, kept as a
# negative control; the verified forms are in tests/test_acceptance.py.
OLD_TABLE_Z = {
    # over c (1 - z)^k, that is -c (z - 1)^k for odd k
    2: RatFunc({3: 4, 5: 1}, 5, 0, "z") * Q(-1, 8),
    3: RatFunc({4: -12, 5: -8, 6: -9, 8: -1}, 8, 0, "z") * Q(1, 16),
    4: RatFunc({5: 192, 6: 352, 7: 376, 8: 104, 9: 76, 11: 5}, 11, 0, "z") * Q(-1, 128),
}


def test_printed_closed_forms_fail_heat_hierarchy():
    """Negative control: the old table of x dS_m/dx contradicts the counts
    for m = 2, 3, 4, and its S_2 entry is not the derivative of any rational
    function, so no solution of the heat hierarchy has it.

    The counts, all H_{g,n} >= 0, give each x dS_m/dx a positive leading
    term 1/(m+1)! x^2; the table starts at x^3, x^4 and x^5, so the first
    differing order is x^2 for each m.
    """
    order = 6
    count_leading = {2: Q(1, 6), 3: Q(1, 24), 4: Q(1, 120)}
    # (lowest x power, its coefficient) of each table entry
    table_leading = {2: (3, Q(1, 2)), 3: (4, Q(-3, 4)), 4: (5, Q(3, 2))}
    for m in (2, 3, 4):
        counts = brute_force.hurwitz_count_x_series(m, order)
        table = brute_force.z_form_x_series(OLD_TABLE_Z[m], order)
        first_diff = next(k for k in range(order + 1) if counts[k] != table[k])
        assert first_diff == 2, m
        assert counts[:3] == [0, 0, count_leading[m]], m
        low = next(k for k in range(order + 1) if table[k] != 0)
        assert (low, table[low]) == table_leading[m], m
    # In t = 1/(1-z), x d/dx = t^2 (t-1) d/dt; the S_2 entry becomes
    # (t-1)^3 (5t^2-2t+1)/8, so dS_2/dt has the term -1/(2t): a log t in S_2.
    claimed_logx = substitute_mobius(OLD_TABLE_Z[2], (Q(1), Q(-1), Q(1), Q(0)),
                                     "t")  # z = (t-1)/t
    assert claimed_logx == RatFunc({0: 1, 1: -2, 2: 5}, -3) * Q(1, 8)
    claimed_dt = claimed_logx / RatFunc({2: -1, 3: 1})
    # claimed_dt = (t-1)^2 (5t^2-2t+1) / (8t^2) is a Laurent polynomial
    assert claimed_dt == RatFunc({-2: 1, -1: -4, 0: 10, 1: -12, 2: 5}) * Q(1, 8)
    with pytest.raises(NonzeroResidue):
        integrate_no_log(claimed_dt, Q(1))
    assert claimed_logx != hur.s_prime_logx(2)


def test_lambert_inversion():
    assert hur.lambert_inversion_check(8) == (None, None)
    z = hur.tree_series(5)
    assert z.coeffs[1] == 1
    assert z.coeffs[3] == Q(3, 2)  # 3^2/3!


def test_overdetermination_guard():
    # every table reproduces at least 3 off-grid values (exercised inside)
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
        hur.elsv_coefficients(g, n)

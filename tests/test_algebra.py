"""Foundation layer: Laurent polynomials, rational functions, series, solver."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import eval_all
from eocurves.errors import (
    DegenerateMap,
    ExactDivisionError,
    NonzeroResidue,
    OverdeterminedMismatch,
    SeriesOrderError,
    SingularMatrix,
    UnfactoredDenominator,
)
from eocurves.laurent import SparseLaurent, sum_over_divisors
from eocurves.linsolve import solve_overdetermined
from eocurves.ratfunc import (
    RatFunc,
    even_part,
    integrate_no_log,
    substitute_mobius,
)
from eocurves.rationals import qstr
from eocurves.series import TruncatedSeries


# -- strategies -----------------------------------------------------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def laurent_polys(arity: int, max_terms: int = 5):
    keys = st.tuples(*[st.integers(min_value=-3, max_value=3)] * arity)
    return st.dictionaries(keys, rationals, max_size=max_terms).map(
        lambda d: SparseLaurent(arity, d))


# the eight maps t -> (at + b)/(ct + d) that permute {0, 1, -1, oo}, each
# scaled by a nonzero rational (the same map)
mobius = st.tuples(
    st.sampled_from([(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, 1, 0),
                     (1, 1, 1, -1), (1, -1, 1, 1), (1, 1, -1, 1), (-1, 1, 1, 1)]),
    rationals.filter(bool)).map(lambda p: tuple(v * p[1] for v in p[0]))


def ratfuncs():
    """A polynomial over a nonzero constant times powers of t, t - 1 and t + 1."""
    coeffs = st.lists(rationals, min_size=1, max_size=4)
    mults = st.tuples(*[st.integers(0, 2)] * 3)
    return st.tuples(coeffs, mults, rationals.filter(bool)).map(
        lambda p: RatFunc({i - p[1][0]: c / p[2] for i, c in enumerate(p[0])},
                          p[1][1], p[1][2]))


# -- rationals --------------------------------------------------------------

def test_rational_encoding_roundtrip():
    for x in (Q(0), Q(-3), Q(22, 7), Q(-5, 9)):
        assert Q(qstr(x)) == x
    assert qstr(Q(4, 2)) == "2"
    assert qstr(Q(-1, 3)) == "-1/3"


# -- SparseLaurent -----------------------------------------------------------

@settings(max_examples=60)
@given(laurent_polys(2), laurent_polys(2), laurent_polys(2))
def test_laurent_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f
    assert f - f == SparseLaurent.zero(2)


@given(laurent_polys(2), laurent_polys(2))
@settings(max_examples=40)
def test_laurent_eval_homomorphism(f, g):
    pt = [Q(3, 2), Q(-5, 3)]
    assert eval_all(f * g, pt) == eval_all(f, pt) * eval_all(g, pt)
    assert eval_all(f + g, pt) == eval_all(f, pt) + eval_all(g, pt)


def test_laurent_diff_integrate_inverse():
    f = SparseLaurent(1, {(3,): Q(2), (-2,): Q(5), (0,): Q(7)})
    g = f.integrate(0, base=Q(-1))
    assert g.diff(0) == f
    assert eval_all(g, [Q(-1)]) == 0


def test_laurent_integrate_log_case():
    f = SparseLaurent(1, {(-1,): Q(1)})
    with pytest.raises(NonzeroResidue):
        f.integrate(0)


def test_laurent_binomial_division():
    t1 = SparseLaurent.var(2, 0)
    t2 = SparseLaurent.var(2, 1)
    f = (t1 * t1 - t2 * t2) * (t1 + t2).pow(2)
    q = f.divide_var_binomial(0, 1, +1)
    assert q == (t1 + t2).pow(3)
    with pytest.raises(ExactDivisionError):
        (t1 * t1 + t2 * t2).divide_var_binomial(0, 1, +1)


def test_laurent_division_with_negative_exponents():
    inv1 = SparseLaurent.var(2, 0, -1)
    inv2 = SparseLaurent.var(2, 1, -1)
    q = (inv1 - inv2).divide_var_binomial(0, 1, +1)
    assert q == SparseLaurent(2, {(-1, -1): Q(-1)})


def test_laurent_linear_division():
    t = SparseLaurent.var(1, 0)
    f = (t - SparseLaurent.const(1, 1)).pow(3)
    q = f.divide_var_linear(0, 1)
    assert q == (t - SparseLaurent.const(1, 1)).pow(2)
    # a rational root would put fractions into the integer numerators
    for root in (Q(1), Q(2, 3), 1.0):
        with pytest.raises(TypeError):
            f.divide_var_linear(0, root)


def test_sum_over_divisors_clears_only_jointly():
    # 1/(t1-t2) - 1/(t1+t2) - 2 t2/((t1-t2)(t1+t2)) = 0, no term divides alone
    t2 = SparseLaurent.var(2, 1)
    one = SparseLaurent.const(2, 1)
    terms = [(one, [(0, 1, 1)]), (-one, [(0, 1, -1)]), (t2.scale(Q(-2)), [(0, 1, 1), (0, 1, -1)])]
    assert sum_over_divisors(2, terms).is_zero()
    for term in terms:
        with pytest.raises(ExactDivisionError):
            sum_over_divisors(2, [term])


def test_sum_over_divisors_repeated_divisor():
    # (t1 - t2)/(t1-t2)^2 + 1/(t2-t1) = 0, the last term spelled with b < a
    t1 = SparseLaurent.var(2, 0)
    t2 = SparseLaurent.var(2, 1)
    one = SparseLaurent.const(2, 1)
    terms = [(t1, [(0, 1, 1), (0, 1, 1)]), (-t2, [(0, 1, 1), (0, 1, 1)]), (one, [(1, 0, 1)])]
    assert sum_over_divisors(2, terms).is_zero()
    cube = (t1 - t2).pow(3) + t1
    # (t1-t2)^3/(t1-t2)^2 + t1/(t1-t2)^2 + t1/((t1-t2)(t2-t1)) = t1 - t2
    assert sum_over_divisors(2, [(cube, [(0, 1, 1)] * 2), (t1, [(0, 1, 1), (1, 0, 1)])]) == t1 - t2


def test_sum_over_divisors_sum_and_linear_divisors():
    t1 = SparseLaurent.var(2, 0)
    t2 = SparseLaurent.var(2, 1)
    one = SparseLaurent.const(2, 1)
    # v_a + v_b, in either spelling
    assert sum_over_divisors(2, [(t1.pow(2) - t2.pow(2), [(0, 1, -1)])]) == t1 - t2
    assert sum_over_divisors(2, [(t1.pow(2) - t2.pow(2), [(1, 0, -1)])]) == t1 - t2
    # v_0 - 1: t1^2/(t1-1) - 1/(t1-1) = t1 + 1
    assert sum_over_divisors(2, [(t1.pow(2), [(0, None, 1)]),
                                 (-one, [(0, None, 1)])]) == t1 + one
    # with no divisors it is a plain sum
    assert sum_over_divisors(2, [(t1, []), (t2, [])]) == t1 + t2
    assert sum_over_divisors(2, []).is_zero()


@pytest.mark.parametrize("divisor,name", [((0, 1, 1), "v0 - v1"), ((0, 1, -1), "v0 \\+ v1"),
                                          ((0, None, 1), "v0 - 1")])
def test_sum_over_divisors_names_the_failing_divisor(divisor, name):
    t1 = SparseLaurent.var(2, 0)
    t2 = SparseLaurent.var(2, 1)
    # t1 t2 + 1 vanishes on none of the three divisors
    terms = [(t1 * t2, [divisor]), (SparseLaurent.const(2, 1), [divisor])]
    with pytest.raises(ExactDivisionError, match=f"remainder dividing by {name}$"):
        sum_over_divisors(2, terms)


def test_laurent_symmetry_and_principal():
    t1 = SparseLaurent.var(2, 0)
    t2 = SparseLaurent.var(2, 1)
    f = t1 * t2 + t1 + t2
    assert f.is_symmetric()
    assert not (t1 - t2).is_symmetric()
    assert f.principal() == {2: Q(1), 1: Q(2)}


# -- RatFunc ----------------------------------------------------------------

def test_differentiate_power_rule():
    f = RatFunc({2: 1})  # t^2
    assert f.diff() == RatFunc({1: 2})
    assert RatFunc.const(5).diff().is_zero()


def test_ratfunc_equality_includes_variable():
    num = {0: 1, 1: 2}  # (1 + 2v) / (v^2 - 1)
    assert RatFunc(num, 1, 1, "t") != RatFunc(num, 1, 1, "z")
    assert RatFunc(num, 1, 1, "z") == RatFunc(num, 1, 1, "z")
    assert len({RatFunc(num, 1, 1, "t"), RatFunc(num, 1, 1, "z")}) == 2


def test_ratfunc_arithmetic_rejects_mixed_variables():
    t, z = RatFunc.x("t"), RatFunc.x("z")
    for op in (lambda: t + z, lambda: t - z, lambda: t * z, lambda: t / z):
        with pytest.raises(ValueError, match="variable mismatch"):
            op()


def test_differentiate_matches_finite_difference():
    # f = z^4 (9 + z^2) / (12 (1 - z^2)^3)
    f = RatFunc({4: 9, 6: 1}, 3, 3, "z") * Q(-1, 12)
    df = f.diff()
    z, h = Q(1, 3), Q(1, 10 ** 5)
    fd = (-f.eval(z + 2 * h) + 8 * f.eval(z + h)
          - 8 * f.eval(z - h) + f.eval(z - 2 * h)) / (12 * h)
    assert abs(float(fd) - float(df.eval(Q(1, 3)))) < 1e-12 * max(1.0, abs(float(fd)))


def test_integrate_no_log_basic():
    f = RatFunc({2: 3})  # 3t^2
    g = integrate_no_log(f, Q(-1))
    assert g == RatFunc({0: 1, 3: 1})


def test_integrate_no_log_rejects_log():
    f = RatFunc({-1: 1})  # 1/t
    with pytest.raises(NonzeroResidue):
        integrate_no_log(f, Q(1))


def test_integrate_no_log_rejects_pole_at_one():
    # 1/(t - 1)^2 is not a Laurent polynomial in t
    with pytest.raises(ValueError, match="pole at 1 or -1"):
        integrate_no_log(RatFunc({0: 1}, 2), Q(0))


def test_integrate_no_log_unfactored():
    # 1/(t^2 + 2) has no pole among 0, 1, -1: the integrand cannot be built
    with pytest.raises(UnfactoredDenominator):
        integrate_no_log(RatFunc.const(1) / RatFunc({0: 2, 2: 1}), Q(1))


@given(laurent_polys(1).map(lambda p: RatFunc({e: c for (e,), c in p.terms.items()})))
@settings(max_examples=40)
def test_diff_then_integrate_identity(f):
    # the derivative of a Laurent polynomial has no residue, so its
    # antiderivative is f up to a constant
    base = Q(2)
    assert integrate_no_log(f.diff(), base) == f - RatFunc.const(f.eval(base))


def test_substitute_mobius_examples():
    z = RatFunc.x("z")
    m = (Q(1), Q(1), Q(1), Q(-1))  # z -> (t+1)/(t-1)
    assert substitute_mobius(z, m, "t") == RatFunc({0: 1, 1: 1}, 1, 0, "t")
    # z^2/(z^2-1) -> (t+1)^2/(4t)
    f = RatFunc({2: 1}, 1, 1, "z")
    g = substitute_mobius(f, m, "t")
    expect = RatFunc({-1: Q(1, 4), 0: Q(1, 2), 1: Q(1, 4)}, var="t")
    assert g == expect
    for pt in (Q(2), Q(3), Q(5, 2), Q(-7, 3), Q(9)):
        zval = (pt + 1) / (pt - 1)
        assert g.eval(pt) == f.eval(zval)
    with pytest.raises(DegenerateMap):
        substitute_mobius(z, (Q(1), Q(2), Q(2), Q(4)))


@given(ratfuncs(), mobius, mobius)
@settings(max_examples=30)
def test_mobius_composition(f, m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    # applying m1 then m2 equals applying the matrix product m1*m2
    comp = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
    if comp[0] * comp[3] - comp[1] * comp[2] == 0:
        return
    lhs = substitute_mobius(substitute_mobius(f, m1), m2)
    rhs = substitute_mobius(f, comp)
    assert lhs == rhs


def test_even_part():
    # z^4 (9+z^2) / (1-z^2)^3 is even
    f = RatFunc({4: -9, 6: -1}, 3, 3, "z")
    g = even_part(f, "u")
    assert g == RatFunc({2: -9, 3: -1}, 3, 0, "u")
    with pytest.raises(ValueError):
        even_part(RatFunc({1: 1}), "u")
    # (z + 1) / (z - 1) has a pole at 1 but not at -1
    with pytest.raises(ValueError):
        even_part(RatFunc({0: 1}, 1, -1, "z"), "u")


# -- solver --------------------------------------------------------------------

def test_solve_identity():
    b = [Q(3), Q(-7), Q(1, 2)]
    eye = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    assert solve_overdetermined(eye, b) == b


def test_solve_vandermonde():
    # nodes 1, 2 with rhs (3, 5): p(x) = 1 + 2x
    m = [[Q(1), Q(1)], [Q(1), Q(2)]]
    assert solve_overdetermined(m, [Q(3), Q(5)]) == [Q(1), Q(2)]


def test_solve_singular():
    with pytest.raises(SingularMatrix):
        solve_overdetermined([[Q(0), Q(0)], [Q(0), Q(0)]], [Q(1), Q(2)])


def test_solve_overdetermined_consistent_and_inconsistent():
    # x + y = 3, x - y = 1, 2x + y = 5 has the solution (2, 1)
    m = [[Q(1), Q(1)], [Q(1), Q(-1)], [Q(2), Q(1)]]
    assert solve_overdetermined(m, [Q(3), Q(1), Q(5)]) == [Q(2), Q(1)]
    # the same pivot rows with a third equation they contradict
    with pytest.raises(OverdeterminedMismatch):
        solve_overdetermined(m, [Q(3), Q(1), Q(6)])


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=30)
def test_solve_random_systems(m, b):
    try:
        x = solve_overdetermined(m, b)
    except SingularMatrix:
        return
    for row, bi in zip(m, b):
        assert sum(r * v for r, v in zip(row, x)) == bi


# -- series ------------------------------------------------------------------------

def test_series_strict_access():
    s = TruncatedSeries([1, 2, 3], "x")
    assert s[2] == 3
    with pytest.raises(SeriesOrderError):
        s[3]


def test_series_exp_reciprocal():
    # exp(x) * exp(-x) = 1
    x = TruncatedSeries([0, 1] + [0] * 8, "x")
    e = x.exp()
    assert e[3] == Q(1, 6)
    prod = e * (-x).exp()
    assert prod.coeffs == [Q(1)] + [Q(0)] * 9
    r = e.reciprocal()
    assert r.coeffs == (-x).exp().coeffs


@given(laurent_polys(2), st.sampled_from([(0, 1, 1), (0, 1, -1), (1, 0, 1)]))
@settings(max_examples=40)
def test_binomial_division_roundtrip(f, spec):
    a, b, sign = spec
    factor = SparseLaurent.var(2, a) + SparseLaurent.var(2, b).scale(Q(-sign))
    assert (f * factor).divide_var_binomial(a, b, sign) == f


@given(laurent_polys(2), st.integers(-5, 5).filter(bool))
@settings(max_examples=40)
def test_linear_division_roundtrip(f, c):
    factor = SparseLaurent.var(2, 0) - SparseLaurent.const(2, c)
    assert (f * factor).divide_var_linear(0, c) == f


@given(laurent_polys(3, max_terms=4))
@settings(max_examples=30)
def test_laurent_json_roundtrip(f):
    assert SparseLaurent(3, {tuple(k): Q(c) for k, c in f.to_json()}) == f


@given(ratfuncs())
@settings(max_examples=30)
def test_ratfunc_json_roundtrip(f):
    data = f.to_json()
    num, den = (RatFunc(dict(enumerate(map(Q, data[k]))), var=data["var"])
                for k in ("num", "den"))
    assert num / den == f
    assert data["den"][-1] == "1"


@given(laurent_polys(2), laurent_polys(2))
@settings(max_examples=30)
def test_laurent_diff_is_derivation(f, g):
    lhs = (f * g).diff(0)
    rhs = f.diff(0) * g + f * g.diff(0)
    assert lhs == rhs

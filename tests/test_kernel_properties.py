"""Property tests of the layer-2 kernels against independent references.

``RatFunc`` arithmetic and normalisation and ``substitute_mobius`` are
checked against sympy (``sympy.cancel``) on denominators built from the
declared poles 0, 1 and -1, under the substitutions the models use;
``integrate_no_log`` against ``sympy.integrate`` on Laurent polynomials
(and a pole at 1 or -1 raises); every ``SparseLaurent`` kernel against a
plain Fraction-by-Fraction loop, including the order of its terms (float
evaluation sums the terms in that order).
"""

import functools
import itertools
import operator
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocurves import catalan, hurwitz
from eocurves.errors import ExactDivisionError, NonzeroResidue, UnfactoredDenominator
from eocurves.laurent import SparseLaurent
from eocurves.ratfunc import POLES, RatFunc, integrate_no_log, substitute_mobius
from eocurves.rationals import qstr

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero = rationals.filter(bool)


def poly_terms(max_shift: int = 3, max_len: int = 4):
    """t^k times a dense polynomial, exponent -> coefficient: zero, constants,
    monomials and general ones."""
    return st.tuples(st.integers(0, max_shift), st.lists(rationals, max_size=max_len)
                     ).map(lambda p: {p[0] + i: c for i, c in enumerate(p[1])})


def pole_orders(poles=POLES, max_mult: int = 3):
    """A nonzero constant and the order of the pole at each of the given points."""
    mults = st.lists(st.integers(0, max_mult), min_size=len(poles), max_size=len(poles))
    return st.tuples(nonzero, mults).map(lambda p: (p[0], dict(zip(poles, p[1]))))


def over(terms: dict, den: tuple) -> RatFunc:
    """sum terms[e] t^e / (const * prod (t - r)^m) for den = (const, {r: m})."""
    const, mults = den
    return RatFunc({e - mults.get(0, 0): c / const for e, c in terms.items()},
                   mults.get(1, 0), mults.get(-1, 0))


def rational(x) -> Q:
    x = sympy.Rational(x)
    return Q(int(x.p), int(x.q))


def poly_expr(coeffs, var=T):
    return sum((sympy.Rational(c.numerator, c.denominator) * var ** e
                for e, c in coeffs.items()), sympy.Integer(0))


def den_expr(den: tuple):
    const, mults = den
    return sympy.Rational(const.numerator, const.denominator) * sympy.Mul(
        *[(T - r) ** m for r, m in mults.items()])


def to_expr(f: RatFunc, var=T):
    """f as a sympy expression, read from its wire format."""
    data = f.to_json()
    num, den = ({e: Q(c) for e, c in enumerate(data[k])} for k in ("num", "den"))
    return poly_expr(num, var) / poly_expr(den, var)


def canonical_json(expr) -> dict:
    """``RatFunc.to_json`` of expr: sympy's reduced quotient, denominator monic."""
    p, q = sympy.fraction(sympy.cancel(sympy.together(expr)))
    p, q = sympy.Poly(p, T, domain="QQ"), sympy.Poly(q, T, domain="QQ")
    lead = q.LC()
    return {"var": "t",
            "num": [] if p.is_zero else
            [qstr(rational(c / lead)) for c in reversed(p.all_coeffs())],
            "den": [qstr(rational(c / lead)) for c in reversed(q.all_coeffs())]}


# -- RatFunc ------------------------------------------------------------------

def pole_ratfuncs(max_len: int = 5, max_mult: int = 3, poles=POLES):
    """num / (c * prod (t - r)^m) over the given poles, by default 0, 1 and -1."""
    return st.tuples(poly_terms(max_shift=1, max_len=max_len), pole_orders(poles, max_mult)
                     ).map(lambda p: over(*p))


def factored(max_mult: int = 2):
    """c t^k (t - 1)^i (t + 1)^j with k, i, j of either sign: a divisor whose
    zeros, like its poles, lie among 0, 1 and -1."""
    powers = st.tuples(*[st.integers(-max_mult, max_mult)] * 3)
    return st.tuples(nonzero, powers).map(lambda p: RatFunc({p[1][0]: p[0]}, *p[1][1:]))


# no deadline: sympy warms up on its first call in a process, and a replayed
# example that ran into the warm-up would fail as FlakyFailure every time
@settings(max_examples=30, deadline=None)
@given(pole_ratfuncs(4, 2), pole_ratfuncs(4, 2), factored(), nonzero,
       st.sampled_from([Q(0), Q(1), Q(-1), Q(3), Q(-2, 3), Q(5, 7)]))
def test_ratfunc_kernels_match_sympy(f, g, h, c, x):
    ef, eg, eh = to_expr(f), to_expr(g), to_expr(h)
    c_expr = sympy.Rational(c.numerator, c.denominator)
    cases = [(f + g, ef + eg), (f - g, ef - eg), (-f, -ef), (f * g, ef * eg),
             (f * c, ef * c_expr), (f + c, ef + c_expr), (f.diff(), sympy.diff(ef, T)),
             (f.pow(2), ef ** 2), (f / h, ef / eh), (h.pow(-2), eh ** -2)]
    for got, want in cases:
        assert got.to_json() == canonical_json(want)
    pole = sympy.fraction(sympy.cancel(ef))[1].subs(T, x) == 0
    if pole:
        with pytest.raises(ZeroDivisionError):
            f.eval(x)
    else:
        assert f.eval(x) == rational(ef.subs(T, x)) and type(f.eval(x)) is Q


@settings(max_examples=60)
@given(pole_ratfuncs(max_len=4), pole_ratfuncs(max_len=4), factored(), nonzero)
def test_ratfunc_equal_values_compare_and_hash_equal(f, g, h, c):
    data = f.to_json()
    num, den = (RatFunc(dict(enumerate(map(Q, data[k])))) for k in ("num", "den"))
    routes = [(f + g) - g, -(-f), (f * c) * (1 / c), f * RatFunc.const(1), f / 1,
              f.pow(1), num / den, f + RatFunc.zero(), (f * h) / h, (f / h) * h,
              f * h.pow(2) * h.pow(-2)]
    for route in routes:
        assert route == f and hash(route) == hash(f)
    assert (f - f) == RatFunc.zero() and not (f - f)
    assert ((f + g) == f) == g.is_zero()
    assert data["den"][-1] == "1"


@settings(max_examples=50, deadline=None)
@given(poly_terms(), pole_orders(), pole_orders(max_mult=2))
def test_ratfunc_normalisation_matches_cancel(num, den, common):
    # num * common over den * common, the product expanded by sympy
    _, mults = common
    shared = sympy.Mul(*[(T - r) ** m for r, m in mults.items()])
    expanded = sympy.Poly(sympy.expand(poly_expr(num) * shared), T, domain="QQ")
    terms = {e: rational(c) for (e,), c in expanded.terms()}
    const, dmults = den
    f = over(terms, (const, {r: dmults[r] + mults[r] for r in POLES}))
    assert f.to_json() == canonical_json(poly_expr(num) / den_expr(den))


# each substitution the models make, with the poles it keeps among 0, 1, -1
MOBIUS_MAPS = [(catalan.T_OF_Z, POLES), (catalan.U_OF_S, (0, 1)), (hurwitz.T_OF_Z, (0, 1))]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MOBIUS_MAPS).flatmap(lambda mp: st.tuples(
    st.just(mp[0]), poly_terms(max_len=3), pole_orders(mp[1], max_mult=2))))
def test_substitute_mobius_matches_sympy(case):
    m, num, den = case
    a, b, c, d = m
    f = over(num, den)
    u = sympy.Symbol("u")
    mob = (sympy.Rational(a.numerator, a.denominator) * u
           + sympy.Rational(b.numerator, b.denominator)) / (
        sympy.Rational(c.numerator, c.denominator) * u
        + sympy.Rational(d.numerator, d.denominator))
    expr = to_expr(f).subs(T, mob)
    got = substitute_mobius(f, m, "u")
    want = to_expr(got, u)
    # cancel alone leaves a nested quotient such as 1/(u/(u - 1) - 1) standing
    assert sympy.cancel(sympy.together(expr - want)) == 0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MOBIUS_MAPS).flatmap(lambda mp: st.tuples(
    st.just(mp[0]), poly_terms(max_len=3), pole_orders(mp[1], max_mult=2))),
    st.sampled_from([Q(1, 2), Q(3, 7)]))
def test_substitute_mobius_is_blind_to_a_common_factor(case, lam):
    # the model maps have integer coefficients; scaled ones take the path
    # that brings the four to one integer denominator
    m, num, den = case
    f = over(num, den)
    assert substitute_mobius(f, tuple(lam * v for v in m), "u") == substitute_mobius(f, m, "u")


def test_undeclared_denominator_factor_raises():
    with pytest.raises(UnfactoredDenominator):
        RatFunc.const(1) / RatFunc({0: 2, 2: 1})  # 1/(t^2 + 2)
    with pytest.raises(UnfactoredDenominator):
        RatFunc.const(1) / RatFunc({0: -Q(1, 2), 1: 1})  # 1/(t - 1/2)
    with pytest.raises(UnfactoredDenominator):
        RatFunc.const(1) / RatFunc({0: -2, 1: 1})  # 1/(t - 2)
    with pytest.raises(UnfactoredDenominator):
        RatFunc({0: 2, 2: 1}, 1, 0).pow(-2)  # ((t - 1)/(t^2 + 2))^2
    # u = s/(s - 1) sends u + 1 to (2s - 1)/(s - 1), a pole at s = 1/2
    with pytest.raises(UnfactoredDenominator):
        substitute_mobius(RatFunc({0: 1}, 0, 1, "u"), catalan.U_OF_S, "s")


# -- antiderivatives -------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.one_of(pole_ratfuncs(4, poles=(0,)), pole_ratfuncs(4)),
       st.sampled_from([Q(2), Q(-3), Q(1, 3), Q(5, 2)]))
def test_integrate_no_log_matches_sympy(f, base):
    expr = sympy.cancel(to_expr(f))
    den = sympy.fraction(expr)[1]
    if den.subs(T, 1) == 0 or den.subs(T, -1) == 0:
        with pytest.raises(ValueError, match="pole at 1 or -1"):
            integrate_no_log(f, base)
        return
    if sympy.residue(expr, T, 0) != 0:
        with pytest.raises(NonzeroResidue):
            integrate_no_log(f, base)
        return
    anti = sympy.integrate(expr, T)
    assert not anti.has(sympy.log)
    want = anti - anti.subs(T, sympy.Rational(base.numerator, base.denominator))
    got = integrate_no_log(f, base)
    assert sympy.cancel(to_expr(got) - want) == 0
    assert got.eval(base) == 0


def test_integrate_no_log_of_a_derivative():
    # d/dt [(t^5 + 2t^2 + 1) / t^3], whose residue at 0 vanishes
    g = RatFunc({-3: 1, -1: 2, 2: 1})
    got = integrate_no_log(g.diff(), Q(3))
    assert got == g - RatFunc.const(g.eval(Q(3)))


# -- SparseLaurent ----------------------------------------------------------------
#
# Every kernel is checked against a plain Fraction-by-Fraction loop over a
# term dict: the same terms in the same order, since float evaluation sums
# in that order.  The inputs mix denominators and negative exponents.

# few distinct coefficients, so that sums and products cancel often
small = st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2, 3), Q(-5, 6), Q(7, 4)])
coeffs = st.one_of(small, small, st.fractions(-30, 30, max_denominator=16).filter(bool))


def laurent_polys(arity: int, values=coeffs, max_size: int = 7):
    keys = st.tuples(*[st.integers(min_value=-2, max_value=2)] * arity)
    return st.dictionaries(keys, values, max_size=max_size).map(
        lambda d: SparseLaurent(arity, d))


def pairs(arity_lo: int = 1):
    return st.integers(arity_lo, 3).flatmap(
        lambda n: st.tuples(laurent_polys(n), laurent_polys(n)))


def singles(arity_lo: int = 1):
    return st.integers(arity_lo, 3).flatmap(
        lambda n: st.tuples(laurent_polys(n), st.integers(0, n - 1)))


def assert_canonical(f: SparseLaurent) -> None:
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c for c in f.num.values())
    assert gcd(f.den, *f.num.values()) == 1


def check(got: SparseLaurent, want: dict) -> None:
    """Same terms in the same order as the reference, in canonical form."""
    assert_canonical(got)
    assert list(got.terms.items()) == list(want.items())
    assert all(type(c) is Q for c in got.terms.values())


def accumulate(res: dict, k, c) -> None:
    s = res.get(k, Q(0)) + c
    if s:
        res[k] = s
    else:
        res.pop(k, None)


def ref_plus(a: dict, b: dict, sign: int) -> dict:
    res = dict(a)
    for k, c in b.items():
        accumulate(res, k, sign * c)
    return res


def ref_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    res: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            accumulate(res, tuple(e1 + e2 for e1, e2 in zip(k1, k2)), c1 * c2)
    return res


def ref_diff(terms: dict, i: int) -> dict:
    res: dict = {}
    for k, c in terms.items():
        if k[i]:
            accumulate(res, k[:i] + (k[i] - 1,) + k[i + 1:], c * k[i])
    return res


def ref_eval_partial(terms: dict, i: int, value: Q) -> dict:
    res: dict = {}
    for k, c in terms.items():
        if k[i]:
            if value == 0 and k[i] < 0:
                raise ZeroDivisionError
            c = c * value ** k[i]
        if c:
            accumulate(res, k[:i] + (0,) + k[i + 1:], c)
    return res


def ref_integrate(terms: dict, i: int, base: Q | None) -> dict:
    anti: dict = {}
    for k, c in terms.items():
        if k[i] == -1:
            raise NonzeroResidue
        anti[k[:i] + (k[i] + 1,) + k[i + 1:]] = c / (k[i] + 1)
    if base is None:
        return anti
    return ref_plus(anti, ref_eval_partial(anti, i, base), -1)


def ref_relabel(terms: dict, key) -> dict:
    res: dict = {}
    for k, c in terms.items():
        accumulate(res, key(k), c)
    return res


def ref_divide(terms: dict, a: int, carry_term) -> dict:
    """Synthetic division by v_a - r, highest power of v_a first.

    ``carry_term(k, c)`` is the key and value r times a quotient term adds
    to the next layer down.
    """
    layers: dict = {}
    for k, c in terms.items():
        layers.setdefault(k[a], {})[k[:a] + (0,) + k[a + 1:]] = c
    if not layers:
        return {}
    hi, lo = max(layers), min(layers)
    quot: dict = {}
    carry: dict = {}
    for e in range(hi, lo - 1, -1):
        step = dict(layers.get(e, {}))
        for k, c in carry.items():
            accumulate(step, *carry_term(k, c))
        if e > lo:
            for k, c in step.items():
                quot[k[:a] + (e - 1,) + k[a + 1:]] = c
            carry = step
        elif step:
            raise ExactDivisionError
    return quot


@settings(max_examples=120)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(laurent_polys(n, small, 6), laurent_polys(n, small, 6))))
def test_laurent_mul_matches_fraction_accumulation(pair):
    f, g = pair
    check(f * g, ref_mul(f.terms, g.terms))


@settings(max_examples=80)
@given(pairs())
def test_laurent_mul_mixed_denominators_matches_fraction_accumulation(pair):
    f, g = pair
    check(f * g, ref_mul(f.terms, g.terms))


@settings(max_examples=80)
@given(pairs())
def test_laurent_sums_match_fraction_loops(pair):
    f, g = pair
    check(f + g, ref_plus(f.terms, g.terms, 1))
    check(f - g, ref_plus(f.terms, g.terms, -1))
    check(-f, {k: -c for k, c in f.terms.items()})


@settings(max_examples=80)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(laurent_polys(n), max_size=5), st.integers(0, 5))))
def test_laurent_sum_matches_a_left_fold(case):
    n, parts, at = case
    if parts:
        # a part and its negation make every key of it cancel midway; a later
        # part holding the key brings it back at the end
        parts[at % len(parts):at % len(parts)] = [parts[0], -parts[0]]
    got = SparseLaurent.sum(n, parts)
    want = functools.reduce(operator.add, parts, SparseLaurent.zero(n))
    assert list(got.num.items()) == list(want.num.items())
    assert got.den == want.den and got == want
    assert_canonical(got)


def test_laurent_sum_keeps_the_fold_order_and_checks_arity():
    x, y = SparseLaurent.var(2, 0), SparseLaurent.var(2, 1)
    parts = [x + y.scale(Q(1, 2)), -x, x.scale(Q(1, 3))]
    assert list(SparseLaurent.sum(2, parts).terms.items()) == [((0, 1), Q(1, 2)),
                                                                ((1, 0), Q(1, 3))]
    assert SparseLaurent.sum(2, []) == SparseLaurent.zero(2)
    with pytest.raises(ValueError, match="arity mismatch"):
        SparseLaurent.sum(2, [x, SparseLaurent.var(1, 0)])


@settings(max_examples=80)
@given(laurent_polys(1), st.integers(0, 2), st.integers(0, 2))
def test_laurent_vanishing_at_units_matches_eval_partial(f, i, j):
    # (v - 1)^i (v + 1)^j f vanishes at 1 when i > 0 and at -1 when j > 0
    f = f * SparseLaurent.in_slot(1, 0, {0: -1, 1: 1}).pow(i) * \
        SparseLaurent.in_slot(1, 0, {0: 1, 1: 1}).pow(j)
    for r in (1, -1):
        assert f.vanishes_at_unit(r) == f.eval_partial(0, r).is_zero()
    # both one-variable kernels refuse other arities
    with pytest.raises(ValueError, match="one-variable"):
        SparseLaurent.var(2, 0).vanishes_at_unit(1)
    with pytest.raises(ValueError, match="one-variable"):
        SparseLaurent.var(2, 0).homogenize(1, 0, 0, 1)


@settings(max_examples=60)
@given(singles(), st.one_of(st.integers(-6, 6), coeffs))
def test_laurent_scale_matches_fraction_loop(fi, c):
    f, _ = fi
    want = {k: v * c for k, v in f.terms.items()} if c else {}
    check(f.scale(Q(c)), want)
    check(f * c, want)


@settings(max_examples=60)
@given(singles(), st.one_of(st.none(), st.sampled_from([Q(0), Q(1), Q(-1), Q(2, 3)])))
def test_laurent_calculus_matches_fraction_loops(fi, base):
    f, i = fi
    check(f.diff(i), ref_diff(f.terms, i))
    try:
        want = ref_integrate(f.terms, i, base)
    except (NonzeroResidue, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            f.integrate(i, base)
    else:
        check(f.integrate(i, base), want)


@settings(max_examples=80)
@given(singles(), st.sampled_from([Q(0), Q(1), Q(-1), Q(2), Q(-3, 2), Q(5, 7), Q(-4, 9)]))
def test_laurent_eval_partial_matches_fraction_loop(fi, value):
    f, i = fi
    try:
        want = ref_eval_partial(f.terms, i, value)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.eval_partial(i, value)
    else:
        check(f.eval_partial(i, value), want)


@settings(max_examples=60)
@given(singles(arity_lo=2), st.data())
def test_laurent_relabelling_matches_fraction_loops(fi, data):
    f, i = fi
    n = f.arity
    keep = (i + 1) % n
    perm = data.draw(st.permutations(range(n)))
    # old slot i goes to slot perm[i]
    check(f.embed(n, perm), ref_relabel(f.terms, lambda k: tuple(k[perm.index(j)]
                                                             for j in range(n))))
    check(f.embed(n, [keep if s == i else s for s in range(n)]), ref_relabel(
        f.terms, lambda k: tuple(k[keep] + k[i] if s == keep else 0 if s == i else k[s]
                           for s in range(n))))
    arity = data.draw(st.integers(1, 4))
    slots = data.draw(st.lists(st.integers(0, arity - 1), min_size=n, max_size=n))

    def embedded(k):
        out = [0] * arity
        for e, s in zip(k, slots):
            out[s] += e
        return tuple(out)
    check(f.embed(arity, slots), ref_relabel(f.terms, embedded))
    check(f.relabel(n + 1, lambda k: k + (k[i],)), ref_relabel(f.terms, lambda k: k + (k[i],)))
    assert f.is_symmetric() == all(
        f.embed(n, p) == f for p in itertools.permutations(range(n)))


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(laurent_polys(n), st.permutations(range(n)))))
def test_laurent_permuted_matches_plain_loop(fp):
    f, perm = fp
    want = {}
    for k, c in f.terms.items():
        out = [0] * f.arity
        for e, j in zip(k, perm):
            out[j] = e
        want[tuple(out)] = c
    check(f.embed(f.arity, perm), want)


@settings(max_examples=60)
@given(singles(arity_lo=2), st.sampled_from([1, -1]), st.booleans())
def test_laurent_divide_binomial_matches_fraction_loop(fi, sign, exact):
    f, a = fi
    b = (a + 1) % f.arity
    if exact:
        f = f * (SparseLaurent.var(f.arity, a) - SparseLaurent.var(f.arity, b).scale(Q(sign)))
    try:
        want = ref_divide(f.terms, a, lambda k, c: (k[:b] + (k[b] + 1,) + k[b + 1:], sign * c))
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            f.divide_var_binomial(a, b, sign)
    else:
        check(f.divide_var_binomial(a, b, sign), want)


@settings(max_examples=60)
@given(singles(), st.sampled_from([1, -1, 2, -3]), st.booleans())
def test_laurent_divide_linear_matches_fraction_loop(fi, c0, exact):
    f, a = fi
    if exact:
        f = f * (SparseLaurent.var(f.arity, a) - SparseLaurent.const(f.arity, c0))
    try:
        want = ref_divide(f.terms, a, lambda k, c: (k, c * c0))
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            f.divide_var_linear(a, c0)
    else:
        check(f.divide_var_linear(a, c0), want)


@settings(max_examples=60)
@given(singles(), st.lists(st.sampled_from([0.5, -1.25, 0.3, 3.0, -0.7]),
                           min_size=3, max_size=3))
def test_laurent_principal_and_float_eval_match_fraction_loops(fi, xs):
    f, _ = fi
    res: dict = {}
    for k, c in f.terms.items():
        accumulate(res, sum(k), c)
    assert list(f.principal().items()) == list(res.items())
    total = 0.0
    for k, c in f.terms.items():
        term = float(c)
        for e, v in zip(k, xs):
            if e:
                term *= v ** e
        total += term
    assert float.hex(f.eval_float(xs)) == float.hex(total)


@settings(max_examples=60)
@given(pairs())
def test_laurent_equal_values_compare_and_hash_equal(pair):
    f, g = pair
    routes = [(f + g) - g, -(-f), f.scale(Q(3, 4)).scale(Q(4, 3)),
              SparseLaurent(f.arity, f.terms),
              SparseLaurent(f.arity, {tuple(k): Q(c) for k, c in f.to_json()})]
    for h in routes:
        assert_canonical(h)
        assert h == f and hash(h) == hash(f)
    assert (f - f).is_zero() and (f - f).den == 1
    assert ((f + g) == f) == g.is_zero()


def test_laurent_constructor_reduces_and_terms_is_read_only():
    f = SparseLaurent(2, {(1, 0): Q(6, 8), (0, -1): Q(-4, 8), (2, 2): 0})
    assert (f.num, f.den) == ({(1, 0): 3, (0, -1): -2}, 4)
    assert f == SparseLaurent(2, {(1, 0): Q(3, 4), (0, -1): Q(-1, 2)})
    with pytest.raises(TypeError):
        f.terms[(1, 0)] = Q(1)
    assert SparseLaurent(1, {(3,): Q(0, 6)}) == SparseLaurent.zero(1)


def test_laurent_cancelled_key_reenters_last():
    # collapsing slot 0 sends (1,0), (2,0) and (0,0) to one key: the first two
    # cancel, so the key is dropped and comes back after (0,1)
    f = SparseLaurent(2, {(1, 0): Q(1, 2), (0, 1): Q(3), (2, 0): Q(-1, 2), (0, 0): Q(5, 4)})
    g = SparseLaurent(2, {(0, 1): Q(-3), (1, 1): Q(1, 6), (0, 0): Q(1, 4)})
    collapse = lambda k: (0, k[0] + k[1])  # noqa: E731
    check(f.eval_partial(0, Q(1)), ref_eval_partial(f.terms, 0, Q(1)))
    assert list(f.eval_partial(0, Q(1)).num) == [(0, 1), (0, 0)]
    check(f.embed(2, [1, 1]), ref_relabel(f.terms, collapse))
    check(f + g, ref_plus(f.terms, g.terms, 1))
    res: dict = {}
    for k, c in f.terms.items():
        accumulate(res, sum(k), c)
    assert list(f.principal().items()) == list(res.items())


def test_laurent_mul_cancellation_and_term_order():
    # (1 + t + t^2)/2 * 2(t - 1 + 1/t)/3 = (t^3 + t + 1/t)/3; the t and t^0
    # sums reach zero on the way and t comes back last
    a = SparseLaurent(1, {(0,): Q(1, 2), (1,): Q(1, 2), (2,): Q(1, 2)})
    b = SparseLaurent(1, {(1,): Q(2, 3), (0,): Q(-2, 3), (-1,): Q(2, 3)})
    assert list((a * b).terms.items()) == [((-1,), Q(1, 3)), ((3,), Q(1, 3)),
                                           ((1,), Q(1, 3))]
    x, y = SparseLaurent.var(2, 0, coeff=Q(1, 2)), SparseLaurent.var(2, 1, coeff=Q(1, 3))
    assert (x + y) * (x - y) == SparseLaurent(2, {(2, 0): Q(1, 4), (0, 2): Q(-1, 9)})
    assert (x * SparseLaurent.zero(2)).is_zero()

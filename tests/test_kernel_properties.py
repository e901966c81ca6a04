"""Property tests of the layer-2 kernels against independent references.

``UPoly.gcd``/``divmod``, ``RatFunc`` normalisation and ``substitute_mobius``
are checked against sympy; ``SparseLaurent.__mul__`` against a plain
Fraction-by-Fraction accumulation, including the order of its terms (float
evaluation sums the terms in that order).
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocurves.laurent import SparseLaurent
from eocurves.ratfunc import RatFunc, UPoly, substitute_mobius

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero = rationals.filter(bool)


def upolys(max_shift: int = 3, max_len: int = 4):
    """t^k times a dense polynomial: zero, constants, monomials and general ones."""
    return st.tuples(st.integers(0, max_shift), st.lists(rationals, max_size=max_len)
                     ).map(lambda p: UPoly([0] * p[0] + p[1]))


monomials = st.builds(UPoly.monomial, st.integers(0, 4), nonzero)
divisors = st.one_of(monomials, upolys().filter(bool))


def to_sympy(p: UPoly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], T, domain="QQ")


def from_sympy(poly) -> UPoly:
    return UPoly([Q(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


# -- UPoly -----------------------------------------------------------------

@settings(max_examples=60)
@given(upolys(), upolys(), st.one_of(monomials, upolys(max_len=3)))
def test_gcd_matches_sympy(a, b, common):
    a, b = a * common, b * common
    g = a.gcd(b)
    assert g == from_sympy(to_sympy(a).gcd(to_sympy(b)))
    assert g == b.gcd(a)
    if g:
        assert g.coeffs[-1] == 1
        assert (a % g).is_zero() and (b % g).is_zero()


def test_gcd_edge_cases():
    t3 = UPoly.monomial(3, Q(-2, 3))
    assert UPoly().gcd(UPoly()).is_zero()
    assert UPoly().gcd(t3) == UPoly.monomial(3)
    assert t3.gcd(UPoly([0, 0, 5, 1])) == UPoly.monomial(2)
    assert UPoly([7]).gcd(UPoly([0, 1, 1])) == UPoly([1])
    # (t - 1) t^2 and (t - 1)(t + 2) t^5 share (t - 1) t^2
    assert (UPoly([0, 0, -1, 1]).gcd(UPoly([0, 0, 0, 0, 0, -2, 1, 1]))
            == UPoly([0, 0, -1, 1]))


@settings(max_examples=60)
@given(upolys(max_len=6), divisors)
def test_divmod_matches_sympy(a, b):
    q, r = a.divmod(b)
    sq, sr = to_sympy(a).div(to_sympy(b))
    assert q == from_sympy(sq)
    assert r == from_sympy(sr)
    assert q * b + r == a
    assert r.degree() < b.degree()


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        UPoly([1, 2]).divmod(UPoly())


# -- RatFunc ------------------------------------------------------------------

@settings(max_examples=50)
@given(upolys(), st.one_of(monomials, upolys().filter(bool)), upolys(max_len=2).filter(bool))
def test_ratfunc_normalisation_matches_cancel(num, den, common):
    f = RatFunc(num * common, den * common)
    p, q = sympy.fraction(sympy.cancel(to_sympy(num).as_expr() / to_sympy(den).as_expr()))
    p, q = sympy.Poly(p, T, domain="QQ"), sympy.Poly(q, T, domain="QQ")
    lead = Q(int(q.LC().p), int(q.LC().q))
    assert f.num == from_sympy(p).scale(1 / lead)
    assert f.den == from_sympy(q).scale(1 / lead)


@settings(max_examples=25)
@given(upolys(max_len=3), st.one_of(monomials, upolys(max_len=3).filter(bool)),
       st.tuples(rationals, rationals, rationals, rationals).filter(
           lambda m: m[0] * m[3] != m[1] * m[2]))
def test_substitute_mobius_matches_sympy(num, den, m):
    a, b, c, d = m
    f = RatFunc(num, den)
    u = sympy.Symbol("u")
    mob = (sympy.Rational(a.numerator, a.denominator) * u
           + sympy.Rational(b.numerator, b.denominator)) / (
        sympy.Rational(c.numerator, c.denominator) * u
        + sympy.Rational(d.numerator, d.denominator))
    expr = (to_sympy(f.num).as_expr() / to_sympy(f.den).as_expr()).subs(T, mob)
    got = substitute_mobius(f, m, "u")
    want = to_sympy(got.num).as_expr().subs(T, u) / to_sympy(got.den).as_expr().subs(T, u)
    assert sympy.cancel(expr - want) == 0


# -- SparseLaurent ----------------------------------------------------------------

# few distinct coefficients, so that products cancel often
coeffs = st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2, 3), Q(-5, 6), Q(7, 4)])


def laurent_polys(arity: int):
    keys = st.tuples(*[st.integers(min_value=-2, max_value=2)] * arity)
    return st.dictionaries(keys, coeffs, max_size=6).map(lambda d: SparseLaurent(arity, d))


def reference_mul(f: SparseLaurent, g: SparseLaurent) -> dict:
    """Term-by-term Fraction accumulation; a sum that reaches zero is dropped."""
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    res: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            s = res.get(k, Q(0)) + c1 * c2
            if s:
                res[k] = s
            else:
                res.pop(k, None)
    return res


@settings(max_examples=120)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(laurent_polys(n), laurent_polys(n))))
def test_laurent_mul_matches_fraction_accumulation(pair):
    f, g = pair
    prod = f * g
    want = reference_mul(f, g)
    assert list(prod.terms.items()) == list(want.items())
    assert all(type(c) is Q and c for c in prod.terms.values())


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

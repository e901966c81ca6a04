"""The packed exponent keys of SparseLaurent: field bounds, order, identity.

Each term's exponent vector is one int with a 16-bit field per slot.  These
tests pin what the packing must not change (tuple views, sorted order,
equality and hashing, exponent sums) and that an exponent one past either
field bound raises instead of wrapping into the neighbouring field.
"""

from fractions import Fraction as Q
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocurves.errors import ExactDivisionError
from eocurves.laurent import EXP_MAX, EXP_MIN, SparseLaurent


def x(arity: int, slot: int, power: int) -> SparseLaurent:
    return SparseLaurent.var(arity, slot, power)


# -- bounds -----------------------------------------------------------------------

@pytest.mark.parametrize("arity", [1, 2, 3])
def test_exponents_at_both_bounds_round_trip(arity):
    keys = [tuple(EXP_MIN if (i + j) % 2 else EXP_MAX for i in range(arity))
            for j in range(2)] + [(0,) * arity]
    terms = {k: Q(j + 1, 3) for j, k in enumerate(keys)}
    f = SparseLaurent(arity, terms)
    assert dict(f.terms) == terms
    assert list(f.num) == keys
    assert SparseLaurent(arity, {tuple(k): Q(c) for k, c in f.to_json()}) == f


@pytest.mark.parametrize("e", [EXP_MAX + 1, EXP_MIN - 1])
def test_constructor_rejects_one_past_a_bound(e):
    with pytest.raises(OverflowError, match=f"exponent {e} of variable 1"):
        SparseLaurent(3, {(0, e, 0): 1})
    with pytest.raises(OverflowError, match=f"exponent {e} of variable 2"):
        SparseLaurent(3, {(1, 1, e): 1})
    with pytest.raises(OverflowError, match=f"exponent {e} of variable 0"):
        SparseLaurent.var(2, 0, e)


def test_product_past_a_bound_raises():
    with pytest.raises(OverflowError, match=f"exponent {EXP_MAX + 1} of variable 1"):
        x(2, 1, EXP_MAX) * x(2, 1, 1)
    with pytest.raises(OverflowError, match=f"exponent {EXP_MIN - 1} of variable 0"):
        x(2, 0, EXP_MIN) * (x(2, 0, -1) + x(2, 1, 3))
    # up to the bounds, and on different slots, nothing raises or wraps
    assert (x(2, 1, EXP_MAX - 1) * x(2, 1, 1)).num == {(0, EXP_MAX): 1}
    assert (x(2, 0, EXP_MIN + 2) * x(2, 0, -2)).num == {(EXP_MIN, 0): 1}
    assert (x(2, 0, EXP_MAX) * x(2, 1, EXP_MAX)).num == {(EXP_MAX, EXP_MAX): 1}
    big = x(2, 0, EXP_MAX) * x(2, 1, EXP_MIN)
    assert (big * big.const(2, 3)).terms == {(EXP_MAX, EXP_MIN): Q(3)}


def test_calculus_past_a_bound_raises():
    with pytest.raises(OverflowError, match=f"exponent {EXP_MIN - 1} of variable 1"):
        x(2, 1, EXP_MIN).diff(1)
    with pytest.raises(OverflowError, match=f"exponent {EXP_MAX + 1} of variable 0"):
        x(2, 0, EXP_MAX).integrate(0)
    assert x(2, 1, EXP_MIN + 1).diff(1).terms == {(0, EXP_MIN): Q(EXP_MIN + 1)}
    assert x(2, 0, EXP_MAX - 1).integrate(0).terms == {(EXP_MAX, 0): Q(1, EXP_MAX)}
    # a slot at the edge does not stop a shift of another slot
    assert (x(2, 0, EXP_MIN) * x(2, 1, 2)).diff(1).num == {(EXP_MIN, 1): 2}


def test_embed_past_a_bound_raises():
    f = x(2, 0, EXP_MAX) * x(2, 1, 1)
    with pytest.raises(OverflowError, match=f"exponent {EXP_MAX + 1} of variable 0"):
        f.embed(1, [0, 0])
    with pytest.raises(OverflowError, match=f"exponent {EXP_MAX + 1} of variable 1"):
        f.embed(2, [1, 1])
    g = x(2, 0, EXP_MAX - 1) * x(2, 1, 1)
    assert g.embed(1, [0, 0]).num == {(EXP_MAX,): 1}
    assert g.embed(3, [2, 0]).num == {(1, 0, EXP_MAX - 1): 1}


def test_binomial_division_near_a_bound():
    v0, v1 = x(2, 0, 1), x(2, 1, 1)
    f = (v0 - v1) * x(2, 1, EXP_MAX - 1)
    assert f.divide_var_binomial(0, 1, 1) == x(2, 1, EXP_MAX - 1)
    # the quotient would need v1^EXP_MAX times v1: a remainder, not a wrap
    with pytest.raises(ExactDivisionError):
        (v0 * x(2, 1, EXP_MAX) + SparseLaurent.const(2, 1)).divide_var_binomial(0, 1, 1)
    # v2^EXP_MAX carried once more would wrap into v1 v2^EXP_MIN and cancel
    # the second term, leaving a false quotient v2^EXP_MAX
    f = x(3, 0, 1) * x(3, 2, EXP_MAX) - x(3, 1, 1) * x(3, 2, EXP_MIN)
    with pytest.raises(ExactDivisionError):
        f.divide_var_binomial(0, 2, 1)


# -- order and identity -----------------------------------------------------------

def polys(arity: int, lo: int = -40, hi: int = 40, max_size: int = 12):
    keys = st.tuples(*[st.integers(lo, hi)] * arity)
    coeffs = st.fractions(-20, 20, max_denominator=12).filter(bool)
    return st.dictionaries(keys, coeffs, max_size=max_size).map(
        lambda d: SparseLaurent(arity, d))


def test_to_json_sorts_as_tuples_when_signs_mix():
    f = SparseLaurent(2, {(0, -3): 1, (-1, 5): 2, (0, 3): 3, (-1, -5): 4})
    assert [k for k, _ in f.to_json()] == [[-1, -5], [-1, 5], [0, -3], [0, 3]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(polys))
def test_to_json_order_is_sorted_tuple_order(f):
    assert [tuple(k) for k, _ in f.to_json()] == sorted(f.terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(polys(n, -3, 3, 6), polys(n, -3, 3, 6))))
def test_equality_and_hash_agree_across_routes(fg):
    f, g = fg
    n = f.arity
    # the same polynomial built five ways
    routes = [
        SparseLaurent(n, f.terms),
        SparseLaurent(n, {tuple(k): Q(c) for k, c in f.to_json()}),
        (f + g) - g,
        sum((SparseLaurent(n, {k: c}) for k, c in reversed(f.terms.items())),
            SparseLaurent.zero(n)),
        f.select(lambda k: True) * SparseLaurent.const(n, 1),
    ]
    for h in routes:
        assert h == f
        assert hash(h) == hash(f)
    assert (f == g) == (dict(f.terms) == dict(g.terms))


def ref_principal(f: SparseLaurent) -> dict:
    res: dict = {}
    for k, c in f.terms.items():
        res[sum(k)] = res.get(sum(k), 0) + c
    return {e: c for e, c in res.items() if c}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(polys))
def test_principal_and_total_degree_match_tuple_sums(f):
    assert f.principal() == ref_principal(f)
    assert f.total_degree() == max((sum(k) for k in f.terms), default=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: polys(n, EXP_MIN, EXP_MAX, 6)))
def test_principal_and_total_degree_with_wide_exponents(f):
    # sums beyond one field: these cannot be cast out
    assert f.principal() == ref_principal(f)
    assert f.total_degree() == max((sum(k) for k in f.terms), default=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: polys(n, -4, 4, 8)))
def test_is_symmetric_matches_every_permutation(f):
    n = f.arity
    sym = SparseLaurent.zero(n)
    for p in permutations(range(n)):
        sym = sym + f.embed(n, p)
    assert sym.is_symmetric()
    assert f.is_symmetric() == all(f.embed(n, p) == f for p in permutations(range(n)))

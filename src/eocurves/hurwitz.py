"""Single Hurwitz numbers and their quantum curve.

Counts come from the cut-and-join recursion, descending on the number of
simple ramification points.  Free energies are reconstructed in the
polynomial basis xi_k(t) (xi_0 = t - 1, xi_{k+1} = t^2(t-1) xi_k'), each a
one-variable ``SparseLaurent`` embedded into its slot, by an exact linear
solve against computed Hurwitz values, which makes the differential
recursion for them a pure verification target.

The WKB layer lives on the curve x = z e^{-z} with z = (t-1)/t and
x = e^{-w}; all "x-derivatives" of the S coefficients are logarithmic,
d/dw with a sign, i.e. x d/dx = t^2(t-1) d/dt, which keeps every object
rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement as _multisets
from itertools import permutations as _perms
from math import comb, exp, factorial, prod
from typing import Sequence

from . import shared
from .errors import (
    ExactDivisionError,
    InvalidProfile,
    OverdeterminedMismatch,
    PathMismatch,
)
from .laurent import Divisor, SparseLaurent, sum_over_divisors
from .linsolve import solve_overdetermined
from .rationals import QONE, QZERO
from .ratfunc import RatFunc, integrate_no_log, substitute_mobius
from .series import TruncatedSeries
from .shared import (
    CurveSymbol,
    diagonal_mixed,
    is_stable,
    memo,
    profile_id,
    profile_ids,
    profiles,
    sorted_key as _sorted_key,
    stable_splits,
    submultisets,
    with_part,
    without_part,
)
from .shared import clear_caches, principal_ratfunc, stable_levels  # public in both models

Q = Fraction

# ---------------------------------------------------------------------------
# cut-and-join recursion
# ---------------------------------------------------------------------------

# N_g(mu) = r! d! H_g(mu), with r = 2g - 2 + n + |mu| simple branch points
# and degree d = |mu|.  Scaled this way the cut-and-join recursion has
# integer coefficients, so the memo holds integers, per genus and profile id.
_h_memo: shared.GenusTables = memo(shared.GenusTables())  # g -> {profile id: N}


# Largest r = 2g - 2 + n + |mu| that a cache file may hold or the CLI takes,
# so |mu| <= r + 1: a cold ``eo verify --suite all`` stores r <= 41; 400! is
# cheap.
MAX_BRANCH_POINTS = 400

# 0!, 1!, ..., (r + 1)! for the largest r <= MAX_BRANCH_POINTS a scale or a
# cache import has needed; d = |mu| <= r + 1.  Factorials are constants, so no
# clear empties it; past MAX_BRANCH_POINTS they are formed for the one call,
# so that no large g keeps a long row alive.
_factorials = [1]


def _scale(g: int, mu: Sequence[int]) -> int:
    """r! d!, the factor between H_g(mu) and its memoized integer N_g(mu)."""
    d = sum(mu)
    r = 2 * g - 2 + len(mu) + d
    if r > MAX_BRANCH_POINTS:
        return factorial(r) * factorial(d)
    fact = _factorials
    while len(fact) <= r + 1:
        fact.append(fact[-1] * len(fact))
    return fact[r] * fact[d]


@memo
def _binomial_row(m: int) -> tuple[int, ...]:
    """C(m, 0), ..., C(m, m); memoized, as the cut-and-join reads each row often."""
    return tuple(comb(m, k) for k in range(m + 1))


def _hurwitz(g: int, pid: int) -> int:
    """N_g(mu) for the profile id pid: cut-and-join r H = join + cut, times (r-1)! d!."""
    own = _h_memo[g]
    cached = own.get(pid)
    if cached is not None:
        return cached
    mu = profiles[pid]
    d = sum(mu)
    r = 2 * g - 2 + len(mu) + d
    if r <= 0:
        return 1 if (g, mu) == (0, (1,)) else 0

    # sub-memo hits, stored zeros included, are read inline; the loops below
    # ask only for g >= 0 and r >= 1, apart from N_0((1)) = 1, so the only
    # calls are for entries the memo does not hold yet.
    # Every term below is doubled, so that the cut's factor 1/2 stays integral.
    twice = 0
    values = sorted(set(mu), reverse=True)
    mult = {v: mu.count(v) for v in values}
    # join two poles: same g and d, one branch point fewer, so N carries over
    for i, a in enumerate(values):
        without_a = without_part(pid, a)
        for b in values[i:]:
            twice_pairs = mult[a] * (mult[a] - 1) if a == b else 2 * mult[a] * mult[b]
            if not twice_pairs:
                continue
            joined = with_part(without_part(without_a, b), a + b)
            nj = own.get(joined)
            if nj is None:
                nj = _hurwitz(g, joined)
            twice += twice_pairs * (a + b) * nj
    # cut one pole in two: a genus drop carries N over; a split into
    # (g1, d1) and (g - g1, d - d1) shares out r - 1 branch points and d sheets.
    # Swapping alpha with beta = v - alpha, each split with its complement and
    # g1 with g - g1 gives the same term (r1 + r2 = r - 1, d1 + d2 = d), so
    # alpha stops at beta and a term with alpha < beta counts twice.
    # At alpha = beta a split and its complement give the same term too, so
    # the mirrored half of the splits counts it.
    if values[0] > 1:  # only when a pole can be cut
        shares = _binomial_row(r - 1)
        sheets = _binomial_row(d)
        tables = [_h_memo[g1] for g1 in range(g + 1)]  # N_g1 at tables[g1], picked once
        pairs = tuple(zip(range(g + 1), tables, reversed(tables)))  # (g1, N_g1, N_{g-g1})
        unit = profile_id((1,))  # N_0((1)) = 1 is not in the memo
    for v in values:
        if v == 1:
            break  # a pole of order 1 is not cut
        rest = without_part(pid, v)
        whole, half = submultisets(rest)
        cut = 0
        for alpha in range(1, v // 2 + 1):
            beta = v - alpha
            term = 0
            if g:
                drop = with_part(with_part(rest, alpha), beta)
                term = tables[g - 1].get(drop)
                if term is None:
                    term = _hurwitz(g - 1, drop)
            for sub, left, size, parts, ways in half if alpha == beta else whole:
                ka = with_part(sub, alpha)
                kb = with_part(left, beta)
                d1 = size + alpha
                weight = ways * sheets[d1]
                r1 = parts + d1 - 1  # at g1 = 0, as ka has parts + 1 parts; each genus adds 2
                for g1, ta, tb in pairs:
                    na = ta.get(ka)
                    if na is None:
                        na = 1 if ka == unit and not g1 else _hurwitz(g1, ka)
                    if na:
                        nb = tb.get(kb)
                        if nb is None:
                            nb = 1 if kb == unit and g1 == g else _hurwitz(g - g1, kb)
                        if nb:
                            term += weight * shares[r1 + 2 * g1] * na * nb
            cut += alpha * beta * (term if alpha == beta else 2 * term)
        twice += mult[v] * cut

    result, odd = divmod(twice, 2)
    if odd:
        raise ExactDivisionError(f"cut-and-join sum for (g={g}, mu={mu}) is odd")
    own[pid] = result
    return result


def hurwitz_number(g: int, n: int, mu: Sequence[int]) -> Fraction:
    """Automorphism-weighted count of covers with n labeled poles of orders mu."""
    key = _sorted_key(mu)
    if n < 1 or len(key) != n or g < 0 or key[-1] < 1:
        raise InvalidProfile(f"bad profile (g={g}, n={n}, mu={tuple(mu)})")
    return Fraction(_hurwitz(g, profile_id(key)), _scale(g, key))


def labeled_hurwitz(g: int, mu: Sequence[int]) -> Fraction:
    """Pole-unlabeled, branch-point-labeled normalization r!/|Aut(mu)| * H."""
    mu_t = _sorted_key(mu)
    r = 2 * g - 2 + len(mu_t) + sum(mu_t)
    aut = 1
    for v in set(mu_t):
        aut *= factorial(mu_t.count(v))
    return hurwitz_number(g, len(mu_t), mu_t) * Q(factorial(r), aut)


# ---------------------------------------------------------------------------
# the polynomial basis xi_k and free energies
# ---------------------------------------------------------------------------

@memo
def xi_polynomial(k: int) -> SparseLaurent:
    """xi_0 = t - 1, xi_{k+1} = t^2 (t-1) d xi_k / dt; degree 2k+1, one variable."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return SparseLaurent.in_slot(1, 0, {0: -1, 1: 1})
    return SparseLaurent.in_slot(1, 0, {2: -1, 3: 1}) * xi_polynomial(k - 1).diff(0)


def _kvectors(n: int, bound: int) -> list[tuple[int, ...]]:
    """Nonincreasing k-tuples of length n with sum <= bound."""
    return [k for k in _multisets(range(bound, -1, -1), n) if sum(k) <= bound]


@memo
def _distinct_perms(kvec: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct permutations of kvec, in their set's order; memoized."""
    return tuple(set(_perms(kvec)))


def _monomial_sym(kvec: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Sum over distinct permutations p of kvec of prod mu_i^{p_i}."""
    return sum(prod(m ** k for m, k in zip(mu, p)) for p in _distinct_perms(kvec))


def _sorted_tuples(n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Nondecreasing n-tuples with entries in [lo, hi]."""
    return list(_multisets(range(lo, hi + 1), n))


def elsv_coefficients(g: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Coefficients of F_{g,n} in the xi basis, from an exact grid solve.

    Solves H(mu) prod(mu_i!/mu_i^mu_i) = sum_k c_k m_k(mu) on sorted grids
    and verifies extra off-grid points reproduce cut-and-join values.
    """
    if not is_stable(g, n):
        raise InvalidProfile(f"({g},{n}) is unstable")
    bound = 3 * g - 3 + n
    kvecs = _kvectors(n, bound)
    grid = _sorted_tuples(n, 1, max(2, bound + 1))

    def scaled_h(mu: tuple[int, ...]) -> Fraction:
        h = hurwitz_number(g, n, mu)
        for m in mu:
            h *= Q(factorial(m), m ** m)
        return h

    matrix = [[_monomial_sym(k, mu) for k in kvecs] for mu in grid]
    rhs = [scaled_h(mu) for mu in grid]
    solution = solve_overdetermined(matrix, rhs)
    table = dict(zip(kvecs, solution))

    # off-grid verification against fresh cut-and-join values
    top = bound + 3 if n > 1 else bound + 4
    on_grid = set(grid)
    extras = [mu for mu in _sorted_tuples(n, 1, top) if mu not in on_grid]
    checked = 0
    for mu in extras:
        if checked >= 3:
            break
        predicted = sum(c * _monomial_sym(k, mu) for k, c in table.items())
        if predicted != scaled_h(mu):
            raise OverdeterminedMismatch(
                f"xi-basis table for ({g},{n}) fails at mu={mu}")
        checked += 1
    if checked < 3:
        raise OverdeterminedMismatch("not enough verification points")

    return table


_fe_memo: dict[tuple[int, int], SparseLaurent] = memo({})


def free_energy(g: int, n: int) -> SparseLaurent:
    """F_{g,n}(t_1..t_n): symmetric polynomial of degree <= 6g-6+3n.

    The permutation terms are added in one ``SparseLaurent.sum``, which
    keeps the term order of adding them one by one.
    """
    key = (g, n)
    if key in _fe_memo:
        return _fe_memo[key]
    table = elsv_coefficients(g, n)
    terms = []
    for kvec, c in table.items():
        if c == 0:
            continue
        for p in _distinct_perms(kvec):
            term = SparseLaurent.const(n, c)
            for slot, k in enumerate(p):
                term = term * xi_polynomial(k).embed(n, [slot])
            terms.append(term)
    total = SparseLaurent.sum(n, terms)
    _fe_memo[key] = total
    return total


# ---------------------------------------------------------------------------
# the differential recursion as a verification target
# ---------------------------------------------------------------------------

def _d_f02_extended(arity: int, i: int, j: int,
                     xoff: int) -> list[tuple[SparseLaurent, list[Divisor]]]:
    """d/dt_i of the two-point primitive, x-values as formal variables.

    z part: t_j/(t_i (t_i - t_j)) - 1/t_i^2; x part:
    -X_i / (t_i^2 (t_i - 1) (X_i - X_j)).  Returned as ``(numerator,
    divisors)`` terms for ``sum_over_divisors``.
    """
    minus_inv_sq = SparseLaurent.var(arity, i, -2, -QONE)
    return [(SparseLaurent.var(arity, j) * SparseLaurent.var(arity, i, -1), [(i, j, 1)]),
            (minus_inv_sq, []),
            (minus_inv_sq * SparseLaurent.var(arity, xoff + i),
             [(xoff + i, xoff + j, 1), (i, None, 1)])]


def _f02_diagonal_second(arity: int, slot: int) -> SparseLaurent:
    """Diagonal mixed second derivative of the two-point primitive.

    The pole part of the pair correlation cancels on the diagonal leaving
    (3t^2 + 2t + 1)/(12 t^4).
    """
    return SparseLaurent.in_slot(arity, slot, {-2: Q(1, 4), -3: Q(1, 6), -4: Q(1, 12)})


def fh_recursion_residual(g: int, n: int) -> SparseLaurent:
    """LHS minus RHS of the cut-and-join differential recursion, cleared.

    Identically zero on success.  In the stable case the ordered pairing
    terms (i,j) and (j,i) enter as one difference quotient, which divides
    on its own; every other term is a polynomial.  For (0,3) the unstable
    two-point inputs carry formal X_i variables standing for the
    transcendental x(t_i); their denominators clear only in the sum, which
    ``sum_over_divisors`` forms, and the returned polynomial lives in the
    doubled variable set.
    """
    fe = free_energy(g, n)
    unstable_pair = (g, n) == (0, 3)
    arity = 2 * n if unstable_pair else n

    femb = fe.embed(arity, list(range(n)))
    res = femb.scale(Q(2 * g - 2 + n))
    for i in range(n):
        res = res + SparseLaurent.in_slot(arity, i, {2: QONE, 1: -QONE}) * femb.diff(i)

    # per slot: t_i^2 (t_i-1)^2, t_i^3 (t_i-1) and (t_i^3 - t_i^2)^2
    quartic = [SparseLaurent.in_slot(arity, i, {4: QONE, 3: Q(-2), 2: QONE}) for i in range(n)]
    cubic = [SparseLaurent.in_slot(arity, i, {4: QONE, 3: -QONE}) for i in range(n)]
    square = [SparseLaurent.in_slot(arity, i, {3: QONE, 2: -QONE}).pow(2) for i in range(n)]

    if unstable_pair:
        terms = []
        for i, j in _perms(range(n), 2):
            df_i = _d_f02_extended(arity, i, 3 - i - j, n)
            # the (i,j) ordered term: t_i t_j/(t_i-t_j) psi_i, psi_i = quartic_i df_i
            titj = SparseLaurent.var(arity, i) * SparseLaurent.var(arity, j)
            terms += [(-(num * quartic[i] * titj), [*divs, (i, j, 1)]) for num, divs in df_i]
            terms += [(num * cubic[i], divs) for num, divs in df_i]
        # the unstable-pair product enters with the opposite sign of the
        # stable product line (verified against cut-and-join values)
        for i in range(n):
            jj, kk = [s for s in range(n) if s != i]
            terms += [(a * b * square[i], [*da, *db])
                      for a, da in _d_f02_extended(arity, i, jj, n)
                      for b, db in _d_f02_extended(arity, i, kk, n)]
        return res + sum_over_divisors(arity, terms)

    if n >= 2:
        fm = free_energy(g, n - 1)
        for i in range(n):
            for j in range(i + 1, n):
                others = [s for s in range(n) if s != i and s != j]
                df_i = fm.embed(n, [i, *others]).diff(i)
                df_j = fm.embed(n, [j, *others]).diff(j)
                # the ordered terms (i,j) and (j,i) add up to
                # -t_i t_j (psi_i - psi_j)/(t_i - t_j), psi_i = t_i^2 (t_i-1)^2 d_i F;
                # the numerator vanishes on t_i = t_j whatever F is
                psi = quartic[i] * df_i - quartic[j] * df_j
                titj = SparseLaurent.var(n, i) * SparseLaurent.var(n, j)
                res = res - (psi * titj).divide_var_binomial(i, j, +1)
                res = res + cubic[i] * df_i + cubic[j] * df_j

    if g >= 1:
        for i in range(n):
            others = [s for s in range(n) if s != i]
            if (g - 1, n + 1) == (0, 2):
                diag = _f02_diagonal_second(n, i)
            else:
                diag = diagonal_mixed(free_energy(g - 1, n + 1)).embed(n, [i, *others])
            res = res - (square[i] * diag).scale(Q(1, 2))

    for i in range(n):
        rest = [s for s in range(n) if s != i]
        for g1, left, g2, right in stable_splits(g, rest):
            fa = free_energy(g1, len(left) + 1).embed(n, [i, *left])
            fb = free_energy(g2, len(right) + 1).embed(n, [i, *right])
            res = res - (square[i] * fa.diff(i) * fb.diff(i)).scale(Q(1, 2))

    return res


# ---------------------------------------------------------------------------
# WKB coefficients in the logarithmic frame
# ---------------------------------------------------------------------------

T_OF_Z = (Q(0), Q(1), Q(-1), Q(1))  # t = 1/(1-z), applied to a function of t
BASE_POINT = QONE  # t = 1 (z = 0, x = 0): free energies vanish here


def to_z(f: RatFunc) -> RatFunc:
    """Rewrite a rational function of t in the z coordinate."""
    return substitute_mobius(f, T_OF_Z, "z")


def curve_symbol() -> CurveSymbol:
    """-y + x e^y on y = z, x = z e^{-z}; derivative frame x d/dx."""
    towers = {0: RatFunc.zero("z"),
              1: RatFunc({0: -1, 1: 1}, var="z")}  # z - 1
    zc = RatFunc.x("z")  # every higher derivative is x e^y = z
    dz = RatFunc({1: -1}, 1, 0, "z")  # z/(1-z)
    return CurveSymbol(lambda r: towers.get(r, zc), dz)


def d_dw(f: RatFunc) -> RatFunc:
    """d/dw = -t^2 (t-1) d/dt on rational functions of t."""
    return RatFunc({2: 1, 3: -1}) * f.diff()


def s0_h() -> RatFunc:
    """S_0 = (1 - 1/t^2)/2."""
    return RatFunc({-2: Q(-1, 2), 0: Q(1, 2)})


def s0_prime_w() -> RatFunc:
    """dS_0/dw = -(t-1)/t = -z."""
    return RatFunc({-1: 1, 0: -1})


def s1_prime_w() -> RatFunc:
    """dS_1/dw = -(t-1)^2/2."""
    return RatFunc({0: Q(-1, 2)}, -2)


def s_coefficient_assembled(m: int) -> RatFunc:
    """S_m(t) from principally specialized free energies (m >= 2)."""
    return shared.s_coefficient_assembled(free_energy, m)


@memo
def _s_dw(k: int) -> RatFunc:
    """dS_k/dw, from the seeds and the recursive S_k."""
    if k < 2:
        return (s0_prime_w(), s1_prime_w())[k]
    return d_dw(s_coefficient_recursive(k))


@memo
def s_coefficient_recursive(m: int) -> RatFunc:
    """S_m(t) by inverting the heat hierarchy order by order.

    S_{m+1} = z^{-m} int_1^t z^m [S_m'' + sum_{a+b=m+1, a,b>=1} S_a' S_b'
    + S_m'] / (2 u (u-1)) du  with z = (u-1)/u and primes d/dw.

    Each order is checked polynomial once, when built.
    """
    if m < 2:
        raise ValueError("seeds only exist for m >= 2")
    k = m - 1
    acc = d_dw(_s_dw(k)) + _s_dw(k)
    for a in range(1, k + 1):
        acc = acc + _s_dw(a) * _s_dw(k + 1 - a)
    z = RatFunc({-1: -1, 0: 1})  # (t-1)/t
    half_density = RatFunc({-1: Q(1, 2)}, 1)  # 1/(2t(t-1))
    anti = integrate_no_log(z.pow(k) * acc * half_density, BASE_POINT)
    s_m = z.pow(-k) * anti
    if not s_m.is_polynomial():
        raise PathMismatch(f"S_{m} failed to come out polynomial")
    return s_m


def s_coefficient(m: int) -> RatFunc:
    """S_m by both constructions, asserted equal: polynomial, degree 3m-3, S_m(1) = 0."""
    assembled = s_coefficient_assembled(m)
    recursive = s_coefficient_recursive(m)
    if assembled != recursive:
        raise PathMismatch(f"S_{m}: assembled and recursive paths differ")
    if not assembled.is_polynomial():
        raise PathMismatch(f"S_{m} is not polynomial")
    degree = len(assembled.coefficients()) - 1
    if degree != 3 * m - 3:
        raise PathMismatch(f"S_{m} has degree {degree}, expected {3 * m - 3}")
    if assembled.eval(QONE) != 0:
        raise PathMismatch(f"S_{m}(1) != 0")
    return assembled


def s_prime_logx(m: int) -> RatFunc:
    """x dS_m/dx = -dS_m/dw as a function of t (m >= 2)."""
    return -d_dw(s_coefficient(m))


s_prime = s_prime_logx  # S_m' in the base frame x d/dx


def base_s_primes(m_max: int) -> list[RatFunc]:
    """S_0'..S_max' in the base frame x d/dx = -d/dw, as functions of t."""
    return ([-s0_prime_w(), -s1_prime_w()]
            + [s_prime_logx(m) for m in range(2, m_max + 1)])


def heat_residuals(m_max: int) -> list[RatFunc]:
    """Order-by-order residuals of the heat-type equation.

    Entry m (0 <= m <= m_max) is
    (d/dw - m) S_{m+1} + (1/2)[S_m'' + sum_{a+b=m+1} S_a' S_b' + S_m']
    with primes d/dw and the pair sum unrestricted; all must vanish.
    """
    svals: list[RatFunc] = [s0_h(), RatFunc.zero("t")]
    w1: list[RatFunc] = [s0_prime_w(), s1_prime_w()]
    for k in range(2, m_max + 2):
        sk = s_coefficient(k)
        svals.append(sk)
        w1.append(d_dw(sk))
    out = []
    for m in range(m_max + 1):
        # (d/dw - m) S_{m+1}; at m = 0 only the derivative of S_1 enters
        if m == 0:
            shifted = w1[1]
        else:
            shifted = w1[m + 1] - svals[m + 1] * m
        bracket = d_dw(w1[m]) + w1[m]
        for a in range(m + 2):
            bracket = bracket + w1[a] * w1[m + 1 - a]
        out.append(shifted + bracket * Q(1, 2))
    return out


def s0_quadratic_identity_residual() -> RatFunc:
    """S_0 - t^2(t-1) S_0' + (t^2(t-1) S_0')^2 / 2 with S_0' = dS_0/dt."""
    s0 = s0_h()
    op = RatFunc({2: -1, 3: 1}) * s0.diff()
    return s0 - op + op * op * Q(1, 2)


# ---------------------------------------------------------------------------
# series inversion of the exponential curve
# ---------------------------------------------------------------------------

def tree_series(order: int) -> TruncatedSeries:
    """z(x) = sum_{mu>=1} mu^{mu-1}/mu! x^mu."""
    return TruncatedSeries(
        [QZERO] + [Q(mu ** (mu - 1), factorial(mu)) for mu in range(1, order + 1)],
        "x")


def lambert_inversion_check(order: int) -> tuple[int | None, int | None]:
    """Verify z e^{-z} = x and t = 1/(1-z) = 1 + sum mu^mu/mu! x^mu.

    Returns the x-power where each residual (curve, frame) first fails, or None.
    """
    z = tree_series(order)
    lhs = z * (-z).exp()
    x = TruncatedSeries([QZERO, QONE] + [QZERO] * (order - 1), "x")
    first = lhs - x
    t_direct = TruncatedSeries(
        [QONE] + [Q(mu ** mu, factorial(mu)) for mu in range(1, order + 1)], "x")
    one = TruncatedSeries([QONE] + [QZERO] * order, "x")
    t_from_z = (one - z).reciprocal()
    second = t_direct - t_from_z

    def first_failing(residual: TruncatedSeries) -> int | None:
        return next((k for k, c in enumerate(residual.coeffs) if c != 0), None)

    return first_failing(first), first_failing(second)


# ---------------------------------------------------------------------------
# floating Laplace probe (x = e^{-w}, small-x regime)
# ---------------------------------------------------------------------------

def z_of_x_float(x: float) -> float:
    """Newton solve of z e^{-z} = x on the principal branch."""
    z = x
    for _ in range(60):
        f = z * pow(2.718281828459045, -z) - x
        fp = (1 - z) * pow(2.718281828459045, -z)
        step = f / fp
        z -= step
        if abs(step) < 1e-16:
            break
    return z


# (g, n, xs, cap) of the hurwitz-laplace check, at x = e^{-w}
LAPLACE_PROBES = [(0, 3, [exp(-w) for w in (3.0, 3.1, 3.2)], 40)]
LAPLACE_SIGN = 1  # H(mu) against x_1^mu_1 ... x_n^mu_n
LAPLACE_EVEN_ONLY = False


def _laplace_weight(g: int, key: tuple[int, ...]) -> float:
    """float(hurwitz_number) of a sorted profile, from the memo: int / int rounds the same.

    The memo is read here, through the profile's id, and ``_hurwitz`` is
    called only on a miss, so a warm probe makes no count call; a miss asks
    ``_hurwitz`` as before, so a cold probe fills the memo in the same order
    and each weight is the same float.
    """
    try:
        count = _h_memo[g][profile_ids[key]]
    except KeyError:
        count = _hurwitz(g, profile_id(key))
    return count / _scale(g, key)

"""Generalized Catalan numbers and their quantum curve.

The counting side: connected cellular graphs on a genus-g surface with n
labeled vertices of prescribed degrees, counted with an arrow on one
half-edge per vertex (edge-shrinking recursion, exact integers).

The geometry side: Laplace-transform free energies F_{g,n}(t_1..t_n) on
the curve x = z + 1/z with z = (t+1)/(t-1), computed by integrating a
differential recursion in exact arithmetic, and the WKB coefficients
S_m(t) of the principally specialized partition function, which satisfy
the second-order equation (hbar d/dx)^2 + hbar x d/dx + 1 order by order.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from . import shared
from .errors import AsymmetricResult, InvalidProfile
from .laurent import SparseLaurent, sum_over_divisors
from .rationals import QONE, QZERO
from .ratfunc import RatFunc, integrate_no_log, substitute_mobius, even_part
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
# counting: the edge-shrinking recursion
# ---------------------------------------------------------------------------

_count_memo: shared.GenusTables = memo(shared.GenusTables())  # g -> {profile id: count}


def _count(g: int, pid: int) -> int:
    """Arrowed cellular-graph count for the profile id pid; pure recursion, memoized."""
    own = _count_memo[g]
    cached = own.get(pid)
    if cached is not None:
        return cached
    mu = profiles[pid]
    if mu[-1] == 0:
        return 1 if (g, mu) == (0, (0,)) else 0
    if sum(mu) % 2:
        return 0

    mu1, rest = mu[0], mu[1:]
    if mu1 == 1:
        # every degree is 1: one edge joins two vertices, or nothing does
        own[pid] = total = int((g, mu) == (0, (1, 1)))
        return total
    # sub-memo hits, stored zeros included, are read inline; the loops below
    # ask only for profiles with even |mu|, no zero part and g >= 0, so the
    # only calls are for entries the memo does not hold yet
    total = 0
    rest_id = without_part(pid, mu1)
    # shrink the arrowed edge joining vertex 1 to another vertex
    for mj in rest:
        merged = with_part(without_part(rest_id, mj), mu1 + mj - 2)
        c = own.get(merged)
        if c is None:
            c = _count(g, merged)
        total += mj * c
    # shrink an arrowed loop at vertex 1 into loops of degrees a and
    # b = mu1 - 2 - a, splitting the other vertices between them.  Swapping
    # a with b, each split with its complement and g1 with g - g1 gives the
    # same term (the parity test agrees as |mu| is even), so a stops at b
    # and a term with a < b counts twice.
    # At a = 0 the genus drop has a zero part, and C_g1((0) + L) is 1 only
    # for g1 = 0, L = (), so the term is C_g((mu1 - 2) + rest); for mu1 = 2
    # (a = b = 0) that is C_g((0) + rest), which is 1 only for C_0((2)).
    if mu1 == 2:
        total += int((g, mu) == (0, (2,)))
    else:
        k0 = with_part(rest_id, mu1 - 2)
        c = own.get(k0)
        if c is None:
            c = _count(g, k0)
        total += 2 * c
    if mu1 >= 4:
        whole, half = submultisets(rest_id)
        tables = [_count_memo[g1] for g1 in range(g + 1)]  # C_g1 at tables[g1], picked once
        pairs = tuple(zip(range(g + 1), tables, reversed(tables)))  # (g1, C_g1, C_{g-g1})
    for a in range(1, mu1 // 2):
        b = mu1 - 2 - a
        term = 0
        if g:
            drop = with_part(with_part(rest_id, a), b)
            term = tables[g - 1].get(drop)
            if term is None:
                term = _count(g - 1, drop)
        # both sides' sums even; at a = b a split and its complement give
        # the same term, so the mirrored half counts it
        for left, right, size, _, ways in half if a == b else whole:
            if (size + a) % 2:
                continue
            ka = with_part(left, a)
            kb = with_part(right, b)
            for g1, ta, tb in pairs:
                ca = ta.get(ka)
                if ca is None:
                    ca = _count(g1, ka)
                if ca:
                    cb = tb.get(kb)
                    if cb is None:
                        cb = _count(g - g1, kb)
                    term += ways * ca * cb
        total += term if a == b else 2 * term

    own[pid] = total
    return total


def catalan_count(g: int, n: int, mu: Sequence[int]) -> int:
    """Number of arrowed cellular graphs of type (g, n) with degrees mu."""
    key = _sorted_key(mu)
    if n < 1 or len(key) != n:
        raise InvalidProfile(f"need n >= 1 vertices, got n={n}, mu={tuple(mu)}")
    if g < 0 or key[-1] < 0:
        raise InvalidProfile(f"bad profile (g={g}, mu={tuple(mu)})")
    return _count(g, profile_id(key))


# ---------------------------------------------------------------------------
# spectral curve data in the t coordinate, z = (t+1)/(t-1), x = z + 1/z
# ---------------------------------------------------------------------------

T_OF_Z = (Q(1), Q(1), Q(1), Q(-1))  # as a Moebius map applied to a function of t
U_OF_S = (Q(1), Q(0), Q(1), Q(-1))  # u = s/(s-1) applied to a function of u = z^2
BASE_POINT = Q(-1)  # t = -1 (z = 0, x = infinity): free energies vanish here


def x_of_t() -> RatFunc:
    """x = z + 1/z = 2(t^2+1)/(t^2-1)."""
    return RatFunc({0: 2, 2: 2}, 1, 1, "t")


def ddx_factor() -> RatFunc:
    """d/dx = ddx_factor * d/dt with the factor -(t^2-1)^2 / (8t)."""
    return RatFunc({-1: Q(-1, 8)}, -2, -2, "t")


def s0_prime_x() -> RatFunc:
    """dS_0/dx = -z = -(t+1)/(t-1)."""
    return RatFunc({0: -1, 1: -1}, 1, 0, "t")


def s1_prime_x() -> RatFunc:
    """dS_1/dx = -(t^2-1)(t+1)^2 / (16 t^2)."""
    return RatFunc({-2: Q(-1, 16)}, -1, -3, "t")


def to_z(f: RatFunc) -> RatFunc:
    """Rewrite a rational function of t in the z coordinate."""
    return substitute_mobius(f, T_OF_Z, "z")


def curve_symbol() -> CurveSymbol:
    """y^2 + x y + 1 on y = -z, x = z + 1/z; derivative frame d/dx."""
    towers = {1: RatFunc({-1: 1, 1: -1}, var="z"),  # (1 - z^2)/z
              2: RatFunc.const(2, "z")}
    zero = RatFunc.zero("z")
    dz = RatFunc({2: 1}, 1, 1, "z")  # z^2/(z^2-1)
    return CurveSymbol(lambda r: towers.get(r, zero), dz)


def s_polynomial(f: RatFunc) -> list[Fraction]:
    """An even function of z as a polynomial in s = z^2/(z^2-1), low to high.

    Raises ValueError if the function is odd in z or not polynomial in s.
    """
    in_u = even_part(to_z(f), "u")
    return substitute_mobius(in_u, U_OF_S, "s").coefficients()


# ---------------------------------------------------------------------------
# free energies: integrated differential recursion
# ---------------------------------------------------------------------------

_fe_memo: dict[tuple[int, int], SparseLaurent] = memo({})


def _kernel3(arity: int, slot: int) -> SparseLaurent:
    """(t^2-1)^3 / t^2 at the given variable slot."""
    return SparseLaurent.in_slot(arity, slot, {4: QONE, 2: Q(-3), 0: Q(3), -2: Q(-1)})


def _kernel2(arity: int, slot: int) -> SparseLaurent:
    """(t^2-1)^2 / t^2 at the given variable slot."""
    return SparseLaurent.in_slot(arity, slot, {2: QONE, 0: Q(-2), -2: QONE})


def free_energy(g: int, n: int) -> SparseLaurent:
    """The n-point genus-g free energy as a Laurent polynomial in t_1..t_n.

    Computed by integrating the loop-equation recursion in t_1 from the
    natural zero at t_1 = -1 and asserting symmetry of the result.
    """
    if not is_stable(g, n):
        raise InvalidProfile(f"({g},{n}) is unstable")
    key = (g, n)
    cached = _fe_memo.get(key)
    if cached is not None:
        return cached

    rhs = _recursion_rhs(g, n)
    fe = rhs.integrate(0, base=BASE_POINT)
    if not fe.is_symmetric():
        raise AsymmetricResult(f"free energy ({g},{n}) failed symmetry")
    _fe_memo[key] = fe
    return fe


def _recursion_rhs(g: int, n: int) -> SparseLaurent:
    """dF_{g,n}/dt_1 assembled from lower free energies.

    Only the (0,3) base case sums terms that do not clear their
    denominators on their own; ``sum_over_divisors`` adds them and divides
    the sum.  Every stable pairing term is divided where it is made: one
    that does not divide raises ExactDivisionError naming the factor, so a
    wrong lower free energy cannot be absorbed into the sum.

    The pairing terms for j = 2..n-1 (the quotient over
    (t_1 - t_j)(t_1 + t_j) and the kernel-2 line) are relabellings of the
    j = 1 terms, so only those are divided.  The slot map [0, j, *others]
    sends slot 1 to j and keeps the other slots in order, which is exactly
    how the direct computation embeds F_{g,n-1}: each relabelled term is
    the direct one, term for term and in term order.  This is sound because
    every memoized F is asserted symmetric by ``free_energy``, so the n - 1
    terms are one orbit of t_2 <-> t_j.  The Hurwitz recursion residual is a
    check and keeps its literal per-pair sums.
    """
    if (g, n) == (0, 3):
        # both pairing factors are the unstable two-point function; its
        # t-derivative is (t_k+1)/((t_1-1)(t_1+t_k)).  A divisor (a, b, s)
        # is t_a - s t_b.
        terms = []
        for j in (1, 2):
            k = 3 - j

            # (u-1)^2 (u+1)^3 (t_k+1) / u^2, over u + t_k, at u = t_1 and u = t_j
            def phi(u: int) -> SparseLaurent:
                return (SparseLaurent.in_slot(n, u, {1: QONE, 0: -QONE}).pow(2)
                        * SparseLaurent.in_slot(n, u, {1: QONE, 0: QONE}).pow(3)
                        * SparseLaurent.in_slot(n, u, {-2: QONE})
                        * SparseLaurent.in_slot(n, k, {1: QONE, 0: QONE}))

            # -(1/16) t_j (phi(t_1) - phi(t_j)) / ((t_1-t_j)(t_1+t_j))
            tj = SparseLaurent.var(n, j)
            terms.append(((phi(0) * tj).scale(Q(-1, 16)), [(0, k, -1), (0, j, 1), (0, j, -1)]))
            terms.append(((phi(j) * tj).scale(Q(1, 16)), [(j, k, -1), (0, j, 1), (0, j, -1)]))
            # second pairing line: -(1/16) (t_1-1)(t_1+1)^2 (t_k+1) / (t_1^2 (t_1+t_k))
            num2 = (SparseLaurent.in_slot(n, 0, {1: QONE, 0: -QONE})
                    * SparseLaurent.in_slot(n, 0, {1: QONE, 0: QONE}).pow(2)
                    * SparseLaurent.in_slot(n, 0, {-2: QONE})
                    * SparseLaurent.in_slot(n, k, {1: QONE, 0: QONE}))
            terms.append((num2.scale(Q(-1, 16)), [(0, k, -1)]))
        # unstable-pair product term, entering with the opposite sign of the
        # stable product line (verified against direct graph counts)
        nump = (SparseLaurent.in_slot(n, 0, {1: QONE, 0: QONE}).pow(3)
                * SparseLaurent.in_slot(n, 0, {1: QONE, 0: -QONE})
                * SparseLaurent.in_slot(n, 0, {-2: QONE})
                * SparseLaurent.in_slot(n, 1, {1: QONE, 0: QONE})
                * SparseLaurent.in_slot(n, 2, {1: QONE, 0: QONE}))
        terms.append((nump.scale(Q(1, 16)), [(0, 1, -1), (0, 2, -1)]))
        return sum_over_divisors(n, terms)

    parts: list[SparseLaurent] = []
    k3 = _kernel3(n, 0)
    if n >= 2:
        # the j = 1 terms, t_2 standing for t_j and F_{g,n-1} on the rest
        fm = free_energy(g, n - 1)
        d_at_1 = fm.embed(n, [0, *range(2, n)]).diff(0)
        d_at_2 = fm.embed(n, [1, *range(2, n)]).diff(1)
        phi_1, phi_2 = k3 * d_at_1, _kernel3(n, 1) * d_at_2
        pairing = (((phi_1 - phi_2) * SparseLaurent.var(n, 1)).scale(Q(-1, 16))
                   .divide_var_binomial(0, 1, +1).divide_var_binomial(0, 1, -1))
        line2 = (_kernel2(n, 0) * d_at_1).scale(Q(-1, 16))
        parts += (pairing, line2)
        for j in range(2, n):
            # slot 1 to j, the others kept in order: the direct j terms
            slots = [0, j, *(s for s in range(1, n) if s != j)]
            parts += (pairing.embed(n, slots), line2.embed(n, slots))

    if g >= 1:
        if (g - 1, n + 1) == (0, 2):
            # mixed second derivative of -log(1 - z_1 z_2) is 1/(t_1+t_2)^2,
            # whose diagonal value is 1/(4 t^2)
            diag = SparseLaurent.in_slot(n, 0, {-2: Q(1, 4)})
        else:
            diag = diagonal_mixed(free_energy(g - 1, n + 1))
        parts.append((k3 * diag).scale(Q(-1, 32)))

    for g1, left, g2, right in stable_splits(g, range(1, n)):
        fa = free_energy(g1, len(left) + 1).embed(n, [0, *left])
        fb = free_energy(g2, len(right) + 1).embed(n, [0, *right])
        parts.append((k3 * fa.diff(0) * fb.diff(0)).scale(Q(-1, 32)))

    # in the term order of adding the parts one by one, which F's float probes read
    return SparseLaurent.sum(n, parts)


# ---------------------------------------------------------------------------
# WKB coefficients S_m
# ---------------------------------------------------------------------------

def s_coefficient_assembled(m: int) -> RatFunc:
    """S_m(t) summed from principally specialized free energies (m >= 2)."""
    return shared.s_coefficient_assembled(free_energy, m)


def s_prime(m: int) -> RatFunc:
    """dS_m/dx from the assembled S_m, as a function of t."""
    return ddx_factor() * s_coefficient_assembled(m).diff()


@memo
def _x_frame_prime(m: int) -> RatFunc:
    """P_m = dS_m/dx as a function of t.

    It comes from the quadratic recursion
    P_{m+1} = (t^2-1)/(4t) * [ c dP_m/dt + sum_{a+b=m+1, a,b>=1} P_a P_b ]
    with c the d/dx -> d/dt factor.  The pair sum runs over a, b >= 1; the
    a = 0 terms are what the (t^2-1)/(4t) inversion absorbs.
    """
    if m < 2:
        return (s0_prime_x(), s1_prime_x())[m]
    acc = ddx_factor() * _x_frame_prime(m - 1).diff()
    for a in range(1, m):
        acc = acc + _x_frame_prime(a) * _x_frame_prime(m - a)
    return RatFunc({-1: Q(1, 4)}, -1, -1, "t") * acc


def base_s_primes(m_max: int) -> list[RatFunc]:
    """S_0'..S_max' (S_1' at least) in the base frame d/dx, by the x-frame recursion."""
    return [_x_frame_prime(m) for m in range(max(m_max, 1) + 1)]


def s_coefficient_recursive(m: int) -> RatFunc:
    """S_m(t) from the Schrodinger-equation recursion, integrated from t = -1."""
    if m < 2:
        raise ValueError("only m >= 2 is integrated; lower ones contain logs")
    return integrate_no_log(_x_frame_prime(m) / ddx_factor(), BASE_POINT)


def schrodinger_residuals(m_max: int) -> list[RatFunc]:
    """Order-by-order residuals of the quantum curve equation.

    Entry k (0 <= k <= m_max+1) is the hbar^k coefficient of
    sum_m S_m'' h^{m+1} + (sum_m S_m' h^m)^2 + x sum_m S_m' h^m + 1,
    expressed in t; all entries must be the zero function.
    """
    c = ddx_factor()
    x = x_of_t()
    primes: list[RatFunc] = [s0_prime_x(), s1_prime_x()]
    for m in range(2, m_max + 2):
        primes.append(c * s_coefficient_assembled(m).diff())
    residuals = [primes[0] * primes[0] + x * primes[0] + 1]
    for k in range(1, m_max + 2):
        acc = c * primes[k - 1].diff() + x * primes[k]
        for a in range(0, k + 1):
            acc = acc + primes[a] * primes[k - a]
        residuals.append(acc)
    return residuals


# ---------------------------------------------------------------------------
# series and floating checks
# ---------------------------------------------------------------------------

def curve_inversion_check(order: int) -> int | None:
    """Invert x = z + 1/z by z(x) = sum C_m x^{-2m-1} through the order.

    Returns the first x-power where z + 1/z differs from x, or None.
    """
    n = 2 * order + 1
    coeffs = [QZERO] * (n + 1)
    for m in range(order + 1):
        coeffs[2 * m + 1] = Fraction(catalan_count(0, 1, [2 * m]))
    g = TruncatedSeries(coeffs[1:], "u")  # z / u with u = 1/x
    # z + 1/z = u^-1 (u^2 g + 1/g) must equal x = u^-1
    probe = TruncatedSeries([QZERO, QZERO] + g.coeffs[:-2], "u") + g.reciprocal()
    # probe is x * (z + 1/z - x); coefficient k corresponds to x^(1-k)
    return next((1 - i for i, c in enumerate(probe.coeffs) if c != (1 if i == 0 else 0)),
                None)


def z_of_x_float(x: float) -> float:
    """The branch of z + 1/z = x vanishing as x -> infinity."""
    return (x - (x * x - 4.0) ** 0.5) / 2.0


# (g, n, xs, cap) of the catalan-laplace check
LAPLACE_PROBES = [(1, 1, [10.0], 60), (0, 3, [10.0, 11.0, 12.0], 60)]
LAPLACE_SIGN = -1  # dessin numbers against prod x_i^-mu_i
LAPLACE_EVEN_ONLY = True  # the counts vanish at odd |mu| = 2E


def _laplace_weight(g: int, key: tuple[int, ...]) -> float:
    """C_{g,n}(mu) / prod(mu) of a sorted profile, from the memo.

    The memo is read here, through the profile's id, and ``_count`` is
    called only on a miss, so a warm probe makes no count call; a miss asks
    ``_count`` as before, so a cold probe fills the memo in the same order.
    int / int rounds like float(Fraction), so this is the float of the
    exact automorphism-weighted count, and each weight is the same float as
    before.
    """
    try:
        c = _count_memo[g][profile_ids[key]]
    except KeyError:
        c = _count(g, profile_id(key))
    return c / prod(key)

"""Symmetric functions in power-sum variables and the tau-function checks.

Schur functions are expanded over power sums through exact characters
(border-strip recursion for values, hook lengths for dimensions).  The
cut-and-join operator acts on this ring; its eigenvalue on s_mu is half
the shifted power sum p_2[mu].  The generating function of Hurwitz
numbers in these variables is rebuilt from the counting module and
compared, graded piece by graded piece, against its character expansion.

Every polynomial is a ``SparseLaurent`` in ``width + 1`` slots: slot 0
holds the power of s and slot i >= 1 the multiplicity of p_i, so
s^r p_lam with |lam| <= width is the exponent vector
(r, m_1(lam), ..., m_width(lam)).  d/ds is ``diff(0)`` and d/dp_i is
``diff(i)``.  Products are the ordinary ``*`` followed by ``truncate`` to
a weight and an s-order.  The Cauchy identity's doubled ring has
2 width + 1 slots, with p^y_i in slot width + i.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .errors import InvalidProfile, SizeMismatch
from .hurwitz import hurwitz_number
from .laurent import SparseLaurent
from .qhbar import qh_monomial, zhou_term
from .rationals import QZERO
from .shared import memo

Q = Fraction

Part = tuple[int, ...]


def normalize_partition(parts: Iterable[int]) -> Part:
    out = tuple(sorted((p for p in parts if p != 0), reverse=True))
    if any(p < 0 for p in out):
        raise InvalidProfile(f"negative part in {out}")
    return out


def partitions_of(n: int, max_part: int | None = None) -> list[Part]:
    if n == 0:
        return [()]
    cap = n if max_part is None else min(max_part, n)
    out: list[Part] = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def z_order(lam: Part) -> int:
    """The centralizer order prod_i i^{m_i} m_i!."""
    z = 1
    for v in set(lam):
        m = lam.count(v)
        z *= v ** m * factorial(m)
    return z


def dimension(mu: Part) -> int:
    """Dimension of the irreducible representation, by hook lengths."""
    mu = normalize_partition(mu)
    if not mu:
        return 1
    conj = [0] * mu[0]
    for row in mu:
        for c in range(row):
            conj[c] += 1
    n = sum(mu)
    num = factorial(n)
    den = 1
    for i, row in enumerate(mu):
        for j in range(row):
            den *= (row - j) + (conj[j] - i) - 1
    return num // den


def character(mu: Part, lam: Part) -> int:
    """Irreducible character value chi_mu(lam), border-strip recursion."""
    mu = normalize_partition(mu)
    lam = normalize_partition(lam)
    if sum(mu) != sum(lam):
        raise SizeMismatch(f"|mu|={sum(mu)} but |lambda|={sum(lam)}")
    return _char(mu, lam)


@memo
def _char(mu: Part, lam: Part) -> int:
    if not lam:
        return 1
    strip, rest = lam[0], lam[1:]
    ell = len(mu)
    beta = [mu[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for other in beta if nb < other < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_mu = normalize_partition(
            v - (len(new_beta) - 1 - idx) for idx, v in enumerate(new_beta))
        total += (-1) ** crossed * _char(new_mu, rest)
    return total


def shifted_power_sum(r: int, mu: Sequence[int]) -> Fraction:
    """sum_i (mu_i - i + 1/2)^r - (-i + 1/2)^r over the parts of mu."""
    if r < 0:
        raise ValueError("r must be >= 0")
    total = QZERO
    half = Q(1, 2)
    for i, part in enumerate(normalize_partition(mu), start=1):
        total += (part - i + half) ** r - (-i + half) ** r
    return total


# ---------------------------------------------------------------------------
# the power-sum polynomial ring
# ---------------------------------------------------------------------------

def _key(lam: Iterable[int], width: int, s_power: int = 0) -> tuple[int, ...]:
    key = [0] * (width + 1)
    key[0] = s_power
    for part in lam:
        key[part] += 1
    return tuple(key)


def p_monomial(lam: Iterable[int], width: int, c: Fraction | int = 1,
               s_power: int = 0) -> SparseLaurent:
    """c s^s_power p_lam in width + 1 slots, for positive parts <= width."""
    return SparseLaurent(width + 1, {_key(lam, width, s_power): c})


def weight(key: Sequence[int], width: int) -> int:
    """The p-weight sum_i i m_i of an exponent vector, over slots 1..width."""
    return sum(i * key[i] for i in range(1, width + 1))


def truncate(f: SparseLaurent, width: int, s_order: int) -> SparseLaurent:
    """The terms of f of weight <= width and s-order <= s_order."""
    return f.select(lambda k: k[0] <= s_order and weight(k, width) <= width)


def schur_in_p(mu: Sequence[int], width: int | None = None) -> SparseLaurent:
    """s_mu = sum over |lam| = |mu| of chi_mu(lam)/z_lam p_lam.

    In width + 1 slots; width defaults to |mu|.
    """
    mu_n = normalize_partition(mu)
    n = sum(mu_n)
    width = n if width is None else width
    return SparseLaurent(width + 1, {_key(lam, width): Q(character(mu_n, lam), z_order(lam))
                                     for lam in partitions_of(n)})


def cutjoin_apply(f: SparseLaurent) -> SparseLaurent:
    """The cut-and-join operator, exact and weight-preserving.

    (1/2) sum_{i,j >= 1} ((i+j) p_i p_j d/dp_{i+j} + i j p_{i+j} d^2/dp_i dp_j),
    on terms of weight <= width = f.arity - 1.
    """
    width = f.arity - 1
    grad = {i: f.diff(i) for i in range(1, width + 1)}
    out = SparseLaurent.zero(f.arity)
    for v in range(2, width + 1):
        # cut a part v into an ordered pair (i, v-i); join one into v
        cut = SparseLaurent.zero(f.arity)
        join = SparseLaurent.zero(f.arity)
        for i in range(1, v):
            cut = cut + p_monomial((i, v - i), width, Q(v, 2))
            join = join + grad[i].diff(v - i) * Q(i * (v - i), 2)
        out = out + grad[v] * cut + join * p_monomial((v,), width)
    return out


# ---------------------------------------------------------------------------
# the two-variable generating function and its expansions
# ---------------------------------------------------------------------------

def exp(f: SparseLaurent, width: int, s_order: int) -> SparseLaurent:
    """exp(f) to weight width and s-order s_order, for f with no term of weight 0."""
    if f.select(lambda k: weight(k, width) == 0):
        raise ValueError("exp needs positive minimum weight")
    result = power = SparseLaurent.const(f.arity, 1)
    for k in range(1, width + 1):
        power = truncate(power * f, width, s_order)
        if power.is_zero():
            break
        result = result + power * Q(1, factorial(k))
    return result


def h_series(d_max: int, r_max: int) -> SparseLaurent:
    """Hurwitz generating function H(s, p), weight <= d_max, s-order <= r_max.

    The coefficient of p_mu s^r collects H_{g,l(mu)}(mu)/|Aut mu| over the
    genera with 2g - 2 + l(mu) + |mu| = r.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    for d in range(1, d_max + 1):
        for mu in partitions_of(d):
            ell = len(mu)
            aut = 1
            for v in set(mu):
                aut *= factorial(mu.count(v))
            for g in range((r_max + 2 - ell - d) // 2 + 1):  # r <= r_max
                r = 2 * g - 2 + ell + d
                terms[_key(mu, d_max, r)] = hurwitz_number(g, ell, mu) / aut
    return SparseLaurent(d_max + 1, terms)


def tau_expansion(d_max: int, r_max: int) -> SparseLaurent:
    """sum_mu (dim mu/|mu|!) e^{p_2[mu] s / 2} s_mu(p), truncated."""
    out = SparseLaurent.zero(d_max + 1)
    for d in range(d_max + 1):
        for mu in partitions_of(d):
            eigen = shifted_power_sum(2, mu) / 2
            flow = SparseLaurent.in_slot(d_max + 1, 0, {
                r: eigen ** r / factorial(r) for r in range(r_max + 1)})
            out = out + schur_in_p(mu, d_max) * flow * Q(dimension(mu), factorial(d))
    return out


def tau_expansion_residual(d_max: int, r_max: int) -> SparseLaurent:
    """exp(H) minus the character expansion; identically zero on success."""
    return exp(h_series(d_max, r_max), d_max, r_max) - tau_expansion(d_max, r_max)


def heat_consistency_residual(d_max: int, r_max: int) -> SparseLaurent:
    """d/ds exp(H) minus the cut-and-join action on exp(H), s-order < r_max."""
    e = exp(h_series(d_max, r_max), d_max, r_max)
    return truncate(e.diff(0) - cutjoin_apply(e), d_max, r_max - 1)


# ---------------------------------------------------------------------------
# Cauchy identity in a doubled ring
# ---------------------------------------------------------------------------

def cauchy_residual(d_max: int) -> SparseLaurent:
    """sum_mu s_mu(p) s_mu(p^y) - exp(sum_m p_m p^y_m / m), weight <= d_max.

    p_i sits in slot i and p^y_i in slot d_max + i of 2 d_max + 1 slots.
    """
    arity = 2 * d_max + 1
    y_slots = [0, *range(d_max + 1, arity)]

    def pair(f: SparseLaurent, g: SparseLaurent) -> SparseLaurent:
        return f.embed(arity, range(d_max + 1)) * g.embed(arity, y_slots)

    schur_side = SparseLaurent.zero(arity)
    for d in range(d_max + 1):
        for mu in partitions_of(d):
            smu = schur_in_p(mu, d_max)
            schur_side = schur_side + pair(smu, smu)
    kernel = SparseLaurent.zero(arity)
    for m in range(1, d_max + 1):
        kernel = kernel + pair(p_monomial((m,), d_max, Q(1, m)), p_monomial((m,), d_max))
    return schur_side - exp(kernel, d_max, 0)


def cauchy_restriction_residual(d_max: int) -> SparseLaurent:
    """Restricting the dual side to p^y = (1, 0, 0, ...) must give exp(p_1)."""
    total = SparseLaurent.zero(d_max + 1)
    for d in range(d_max + 1):
        for mu in partitions_of(d):
            total = total + schur_in_p(mu, d_max) * Q(dimension(mu), factorial(d))
    expo = SparseLaurent(d_max + 1, {_key((1,) * k, d_max): Q(1, factorial(k))
                                     for k in range(d_max + 1)})
    return total - expo


# ---------------------------------------------------------------------------
# principal specialization collapse
# ---------------------------------------------------------------------------

def principal_collapse_check(m_max: int) -> list[str]:
    """Substituting p_j = (x/hbar)^j collapses the expansion to one row.

    Verifies (i) multi-row Schur functions vanish under the substitution,
    (ii) one-row terms give exactly the explicit series entries in the
    q-hbar ring, including the q-exponent p_2[mu]/2.
    """
    failures: list[str] = []
    for m in range(m_max + 1):
        total = SparseLaurent.zero(3)
        for mu in partitions_of(m):
            sigma = QZERO
            for lam in partitions_of(m):
                chi = character(mu, lam)
                if chi:
                    sigma += Q(chi, z_order(lam))
            if len(mu) > 1 and sigma != 0:
                failures.append(f"multi-row survivor {mu}")
            eigen2 = shifted_power_sum(2, mu)
            if eigen2.denominator != 1 or int(eigen2) % 2:
                failures.append(f"odd eigenvalue at {mu}")
                continue
            total = total + qh_monomial(int(eigen2) // 2, -m, m,
                                        Q(dimension(mu), factorial(m)) * sigma)
        expected = zhou_term(m) * Q(1, factorial(m))
        if total != expected:
            failures.append(f"collapse total at m={m}")
    return failures

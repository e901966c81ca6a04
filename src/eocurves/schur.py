"""Symmetric functions in power-sum variables and the tau-function checks.

Schur functions are expanded over power sums through exact characters
(border-strip recursion for values, hook lengths for dimensions).  The
cut-and-join operator acts on this ring; its eigenvalue on s_mu is half
the shifted power sum p_2[mu].  The generating function of Hurwitz
numbers in these variables is rebuilt from the counting module and
compared, graded piece by graded piece, against its character expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from .errors import SizeMismatch
from .hurwitz import hurwitz_number
from .laurent import SparseLaurent
from .qhbar import qh_monomial, zhou_term
from .rationals import QONE, QZERO

Q = Fraction

Part = tuple[int, ...]


def normalize_partition(parts: Iterable[int]) -> Part:
    out = tuple(sorted((p for p in parts if p != 0), reverse=True))
    if any(p < 0 for p in out):
        raise ValueError("negative part")
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


_char_memo: dict[tuple[Part, Part], int] = {}


def character(mu: Part, lam: Part) -> int:
    """Irreducible character value chi_mu(lam), border-strip recursion."""
    mu = normalize_partition(mu)
    lam = normalize_partition(lam)
    if sum(mu) != sum(lam):
        raise SizeMismatch(f"|mu|={sum(mu)} but |lambda|={sum(lam)}")
    return _char(mu, lam)


def _char(mu: Part, lam: Part) -> int:
    if not lam:
        return 1
    key = (mu, lam)
    cached = _char_memo.get(key)
    if cached is not None:
        return cached
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
    _char_memo[key] = total
    return total


def dim_and_character(mu: Sequence[int],
                      lam: Sequence[int] | None = None) -> tuple[int, int | None]:
    """Dimension of mu and, when lam is given, the character value at lam."""
    mu_n = normalize_partition(mu)
    if lam is None:
        return dimension(mu_n), None
    return dimension(mu_n), character(mu_n, normalize_partition(lam))


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

class PPolynomial:
    """Polynomial in p_1, p_2, ... with monomials indexed by partitions."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Part, Fraction] | None = None):
        self.terms: dict[Part, Fraction] = {
            k: Fraction(c) for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "PPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "PPolynomial":
        return cls({(): QONE})

    @classmethod
    def monomial(cls, lam: Iterable[int], c: Fraction | int = 1) -> "PPolynomial":
        return cls({normalize_partition(lam): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        bits = [f"{c}*p{list(k)}" for k, c in sorted(self.terms.items())[:6]]
        return "PPolynomial(" + " + ".join(bits) + (
            " ...)" if len(self.terms) > 6 else ")")

    def __add__(self, other: "PPolynomial") -> "PPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, QZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PPolynomial(out)

    def __sub__(self, other: "PPolynomial") -> "PPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, QZERO) - c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PPolynomial(out)

    def __neg__(self) -> "PPolynomial":
        return PPolynomial({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "PPolynomial | Fraction | int") -> "PPolynomial":
        if isinstance(other, (Fraction, int)):
            return PPolynomial({k: c * other for k, c in self.terms.items()})
        out: dict[Part, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = normalize_partition(k1 + k2)
                s = out.get(key, QZERO) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return PPolynomial(out)

    __rmul__ = __mul__

    def weight_truncate(self, d_max: int) -> "PPolynomial":
        return PPolynomial({k: c for k, c in self.terms.items()
                            if sum(k) <= d_max})


def schur_in_p(mu: Sequence[int]) -> PPolynomial:
    """s_mu = sum over |lam| = |mu| of chi_mu(lam)/z_lam p_lam."""
    mu_n = normalize_partition(mu)
    n = sum(mu_n)
    out: dict[Part, Fraction] = {}
    for lam in partitions_of(n):
        chi = character(mu_n, lam)
        if chi:
            out[lam] = Q(chi, z_order(lam))
    return PPolynomial(out)


def cutjoin_apply(f: PPolynomial) -> PPolynomial:
    """The cut-and-join operator, exact and weight-preserving."""
    out = PPolynomial.zero()
    half = Q(1, 2)
    for lam, c in f.terms.items():
        # split one part v into an ordered composition (i, v-i)
        for v in set(lam):
            mult = lam.count(v)
            base = list(lam)
            base.remove(v)
            for i in range(1, v):
                out = out + PPolynomial.monomial(
                    base + [i, v - i], c * half * v * mult)
        # join an ordered pair of parts (i, j) into i+j
        values = sorted(set(lam))
        for ai, i in enumerate(values):
            for j in values[ai:]:
                if i == j:
                    pairs = lam.count(i) * (lam.count(i) - 1)
                else:
                    pairs = 2 * lam.count(i) * lam.count(j)
                if not pairs:
                    continue
                base = list(lam)
                base.remove(i)
                base.remove(j)
                out = out + PPolynomial.monomial(
                    base + [i + j], c * half * i * j * pairs)
    return out


# ---------------------------------------------------------------------------
# the two-variable generating function and its expansions
# ---------------------------------------------------------------------------

class SPSeries:
    """Truncated series in s with weight-capped PPolynomial coefficients."""

    __slots__ = ("coeffs", "weight_cap")

    def __init__(self, coeffs: Sequence[PPolynomial], weight_cap: int):
        self.coeffs = list(coeffs)
        self.weight_cap = weight_cap

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "SPSeries") -> "SPSeries":
        n = min(self.order, other.order)
        return SPSeries([self.coeffs[r] + other.coeffs[r] for r in range(n + 1)],
                        min(self.weight_cap, other.weight_cap))

    def __sub__(self, other: "SPSeries") -> "SPSeries":
        n = min(self.order, other.order)
        return SPSeries([self.coeffs[r] - other.coeffs[r] for r in range(n + 1)],
                        min(self.weight_cap, other.weight_cap))

    def __mul__(self, other: "SPSeries") -> "SPSeries":
        n = min(self.order, other.order)
        cap = min(self.weight_cap, other.weight_cap)
        out = [PPolynomial.zero() for _ in range(n + 1)]
        for r1, c1 in enumerate(self.coeffs[:n + 1]):
            if c1.is_zero():
                continue
            for r2 in range(n + 1 - r1):
                c2 = other.coeffs[r2]
                if not c2.is_zero():
                    out[r1 + r2] = out[r1 + r2] + (c1 * c2).weight_truncate(cap)
        return SPSeries(out, cap)

    def scale(self, c: Fraction) -> "SPSeries":
        return SPSeries([p * c for p in self.coeffs], self.weight_cap)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs)

    def exp(self) -> "SPSeries":
        """exp of a series whose every monomial has positive p-weight."""
        if any(sum(k) == 0 for k in self.coeffs[0].terms):
            raise ValueError("exp needs positive minimum weight")
        result = SPSeries([PPolynomial.one()] + [PPolynomial.zero()] * self.order,
                          self.weight_cap)
        power = result
        for k in range(1, self.weight_cap + 1):
            power = power * self
            if power.is_zero():
                break
            result = result + power.scale(Q(1, factorial(k)))
        return result


def h_series(d_max: int, r_max: int) -> SPSeries:
    """Hurwitz generating function H(s, p), weight <= d_max, s-order <= r_max.

    The coefficient of p_mu s^r collects H_{g,l(mu)}(mu)/|Aut mu| over the
    genera with 2g - 2 + l(mu) + |mu| = r.
    """
    coeffs = [PPolynomial.zero() for _ in range(r_max + 1)]
    for d in range(1, d_max + 1):
        for mu in partitions_of(d):
            ell = len(mu)
            aut = 1
            for v in set(mu):
                aut *= factorial(mu.count(v))
            g = 0
            while True:
                r = 2 * g - 2 + ell + d
                if r > r_max:
                    break
                if r >= 0:
                    h = hurwitz_number(g, ell, mu)
                    if h:
                        coeffs[r] = coeffs[r] + PPolynomial.monomial(mu, h / aut)
                g += 1
    return SPSeries(coeffs, d_max)


def tau_expansion(d_max: int, r_max: int) -> SPSeries:
    """sum_mu (dim mu/|mu|!) e^{p_2[mu] s / 2} s_mu(p), truncated."""
    coeffs = [PPolynomial.zero() for _ in range(r_max + 1)]
    for d in range(d_max + 1):
        for mu in partitions_of(d):
            weight = Q(dimension(mu), factorial(d))
            eigen = shifted_power_sum(2, mu) / 2
            smu = schur_in_p(mu)
            for r in range(r_max + 1):
                c = weight * eigen ** r / factorial(r)
                coeffs[r] = coeffs[r] + smu * c
    return SPSeries(coeffs, d_max)


def tau_expansion_residual(d_max: int, r_max: int) -> SPSeries:
    """exp(H) minus the character expansion; identically zero on success."""
    return h_series(d_max, r_max).exp() - tau_expansion(d_max, r_max)


def heat_consistency_residual(d_max: int, r_max: int) -> SPSeries:
    """d/ds exp(H) minus the cut-and-join action on exp(H)."""
    e = h_series(d_max, r_max).exp()
    ds = [e.coeffs[r + 1] * Q(r + 1) for r in range(r_max)]
    cj = [cutjoin_apply(e.coeffs[r]) for r in range(r_max)]
    return SPSeries([a - b for a, b in zip(ds, cj)], d_max)


# ---------------------------------------------------------------------------
# Cauchy identity in a doubled ring
# ---------------------------------------------------------------------------

class PairPolynomial:
    """Polynomial in two independent families of power sums."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Part, Part], Fraction] | None = None):
        self.terms: dict[tuple[Part, Part], Fraction] = {
            k: Fraction(c) for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def one(cls) -> "PairPolynomial":
        return cls({((), ()): QONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PairPolynomial") -> "PairPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, QZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PairPolynomial(out)

    def __sub__(self, other: "PairPolynomial") -> "PairPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, QZERO) - c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PairPolynomial(out)

    def mul_truncated(self, other: "PairPolynomial", cap: int) -> "PairPolynomial":
        out: dict[tuple[Part, Part], Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                ka = normalize_partition(a1 + a2)
                kb = normalize_partition(b1 + b2)
                if sum(ka) > cap or sum(kb) > cap:
                    continue
                key = (ka, kb)
                s = out.get(key, QZERO) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return PairPolynomial(out)


def pair_from(f: PPolynomial, side: int) -> PairPolynomial:
    if side == 0:
        return PairPolynomial({(k, ()): c for k, c in f.terms.items()})
    return PairPolynomial({((), k): c for k, c in f.terms.items()})


def cauchy_residual(d_max: int) -> PairPolynomial:
    """sum_mu s_mu(p) s_mu(p^y) - exp(sum_m p_m p^y_m / m), weight <= d_max."""
    schur_side = PairPolynomial()
    for d in range(d_max + 1):
        for mu in partitions_of(d):
            left = pair_from(schur_in_p(mu), 0)
            right = pair_from(schur_in_p(mu), 1)
            schur_side = schur_side + left.mul_truncated(right, d_max)
    kernel = PairPolynomial({((m,), (m,)): Q(1, m) for m in range(1, d_max + 1)})
    exp_side = PairPolynomial.one()
    power = PairPolynomial.one()
    for k in range(1, d_max + 1):
        power = power.mul_truncated(kernel, d_max)
        if power.is_zero():
            break
        exp_side = exp_side + PairPolynomial(
            {key: c * Q(1, factorial(k)) for key, c in power.terms.items()})
    return schur_side - exp_side


def cauchy_restriction_residual(d_max: int) -> PPolynomial:
    """Restricting the dual side to p^y = (1, 0, 0, ...) must give exp(p_1)."""
    total = PPolynomial.zero()
    for d in range(d_max + 1):
        for mu in partitions_of(d):
            total = total + schur_in_p(mu) * Q(dimension(mu), factorial(d))
    expo = PPolynomial.zero()
    for k in range(d_max + 1):
        expo = expo + PPolynomial.monomial((1,) * k, Q(1, factorial(k)))
    return total - expo


# ---------------------------------------------------------------------------
# principal specialization collapse
# ---------------------------------------------------------------------------

def principal_collapse_check(m_max: int) -> dict:
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
    return {"m_max": m_max, "pass": not failures, "failures": failures}

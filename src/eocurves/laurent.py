"""Sparse multivariate Laurent polynomials over exact rationals.

Terms are stored as a map from integer exponent vectors (entries may be
negative) to nonzero Fractions; two values are equal iff their term maps
are identical, so every constructor and operation prunes zeros.

``BinomialFraction`` layers a restricted denominator on top: a multiset
of factors of the forms ``v_a - v_b``, ``v_a + v_b`` and ``v_a - c``.
These are the only denominators produced by the free-energy recursions;
summing such fractions and clearing the denominator by exact synthetic
division is all the multivariate rational arithmetic this package needs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import ExactDivisionError, NonzeroResidue
from .rationals import QZERO, over_common_denominator, qstr, parse_q

ExpVec = tuple[int, ...]


class SparseLaurent:
    """A Laurent polynomial in ``arity`` variables with Fraction coefficients."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[ExpVec, Fraction] | None = None,
                 _prune: bool = True):
        self.arity = arity
        if terms is None:
            self.terms: dict[ExpVec, Fraction] = {}
        elif _prune:
            self.terms = {k: Fraction(c) for k, c in terms.items() if c != 0}
        else:
            self.terms = dict(terms)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "SparseLaurent":
        return cls(arity, {}, _prune=False)

    @classmethod
    def const(cls, arity: int, c: Fraction | int) -> "SparseLaurent":
        c = Fraction(c)
        if c == 0:
            return cls.zero(arity)
        return cls(arity, {(0,) * arity: c}, _prune=False)

    @classmethod
    def var(cls, arity: int, i: int, power: int = 1,
            coeff: Fraction | int = 1) -> "SparseLaurent":
        return cls.in_slot(arity, i, {power: coeff})

    @classmethod
    def in_slot(cls, arity: int, slot: int,
                coeffs: Mapping[int, Fraction | int]) -> "SparseLaurent":
        """A Laurent polynomial in variable ``slot`` alone, exponent -> coefficient."""
        terms = {}
        for e, c in coeffs.items():
            key = [0] * arity
            key[slot] = e
            terms[tuple(key)] = c
        return cls(arity, terms)

    # -- basics ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseLaurent):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"SparseLaurent({self.arity}, 0)"
        bits = []
        for key in sorted(self.terms)[:8]:
            bits.append(f"{qstr(self.terms[key])}*t^{key}")
        more = "..." if len(self.terms) > 8 else ""
        return f"SparseLaurent({self.arity}, {' + '.join(bits)}{more})"

    def __len__(self) -> int:
        return len(self.terms)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "SparseLaurent") -> "SparseLaurent":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        res = dict(self.terms)
        for k, c in other.terms.items():
            s = res.get(k, QZERO) + c
            if s:
                res[k] = s
            else:
                res.pop(k, None)
        return SparseLaurent(self.arity, res, _prune=False)

    def __sub__(self, other: "SparseLaurent") -> "SparseLaurent":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        res = dict(self.terms)
        for k, c in other.terms.items():
            s = res.get(k, QZERO) - c
            if s:
                res[k] = s
            else:
                res.pop(k, None)
        return SparseLaurent(self.arity, res, _prune=False)

    def __neg__(self) -> "SparseLaurent":
        return SparseLaurent(self.arity, {k: -c for k, c in self.terms.items()},
                             _prune=False)

    def __mul__(self, other: "SparseLaurent | Fraction | int") -> "SparseLaurent":
        if isinstance(other, (Fraction, int)):
            return self.scale(Fraction(other))
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        # Accumulate integer numerators over the common denominator da*db.
        # A partial sum that reaches zero is dropped and its key re-enters
        # at the end, so the terms come out in the order a Fraction-by-
        # Fraction accumulation gives them (float evaluation follows it).
        da, na = over_common_denominator(a.values())
        db, nb = over_common_denominator(b.values())
        res: dict[ExpVec, int] = {}
        for k1, c1 in zip(a, na):
            for k2, c2 in zip(b, nb):
                k = tuple(map(add, k1, k2))
                s = res.get(k, 0) + c1 * c2
                if s:
                    res[k] = s
                else:
                    res.pop(k, None)
        d = da * db
        return SparseLaurent(self.arity, {k: Fraction(v, d) for k, v in res.items()},
                             _prune=False)

    __rmul__ = __mul__

    def scale(self, c: Fraction) -> "SparseLaurent":
        if c == 0:
            return SparseLaurent.zero(self.arity)
        return SparseLaurent(self.arity, {k: v * c for k, v in self.terms.items()},
                             _prune=False)

    def pow(self, n: int) -> "SparseLaurent":
        if n < 0:
            raise ValueError("negative power")
        res = SparseLaurent.const(self.arity, 1)
        base = self
        while n:
            if n & 1:
                res = res * base
            n >>= 1
            if n:
                base = base * base
        return res

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "SparseLaurent":
        res: dict[ExpVec, Fraction] = {}
        for k, c in self.terms.items():
            e = k[i]
            if e == 0:
                continue
            nk = k[:i] + (e - 1,) + k[i + 1:]
            s = res.get(nk, QZERO) + c * e
            if s:
                res[nk] = s
            else:
                res.pop(nk, None)
        return SparseLaurent(self.arity, res, _prune=False)

    def integrate(self, i: int, base: Fraction | None = None) -> "SparseLaurent":
        """Termwise antiderivative in variable ``i``.

        Raises NonzeroResidue if a ``v_i^-1`` term is present (a log would
        appear).  With ``base`` given, normalizes so the result vanishes at
        ``v_i = base``.
        """
        res: dict[ExpVec, Fraction] = {}
        for k, c in self.terms.items():
            e = k[i]
            if e == -1:
                raise NonzeroResidue(
                    f"residue {qstr(c)} at exponent -1 of variable {i}")
            nk = k[:i] + (e + 1,) + k[i + 1:]
            res[nk] = c / (e + 1)
        anti = SparseLaurent(self.arity, res, _prune=False)
        if base is None:
            return anti
        at_base = anti.eval_partial(i, base)
        return anti - at_base

    # -- substitution and evaluation ---------------------------------------

    def eval_partial(self, i: int, value: Fraction) -> "SparseLaurent":
        """Substitute ``v_i = value`` (exponent of slot i becomes 0)."""
        res: dict[ExpVec, Fraction] = {}
        for k, c in self.terms.items():
            e = k[i]
            if e:
                if value == 0 and e < 0:
                    raise ZeroDivisionError("negative power at 0")
                c = c * value ** e
            if c == 0:
                continue
            nk = k[:i] + (0,) + k[i + 1:]
            s = res.get(nk, QZERO) + c
            if s:
                res[nk] = s
            else:
                res.pop(nk, None)
        return SparseLaurent(self.arity, res, _prune=False)

    def eval_all(self, values: Sequence[Fraction]) -> Fraction:
        total = QZERO
        for k, c in self.terms.items():
            term = c
            for e, v in zip(k, values):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return total

    def eval_float(self, values: Sequence[float]) -> float:
        total = 0.0
        for k, c in self.terms.items():
            term = float(c)
            for e, v in zip(k, values):
                if e:
                    term *= v ** e
            total += term
        return total

    def permuted(self, perm: Sequence[int]) -> "SparseLaurent":
        """Relabel variables: new slot j carries old slot perm[j]."""
        res = {tuple(k[perm[j]] for j in range(self.arity)): c
               for k, c in self.terms.items()}
        return SparseLaurent(self.arity, res, _prune=False)

    def is_symmetric(self) -> bool:
        """Invariance under all variable permutations (checked on generators)."""
        n = self.arity
        if n <= 1:
            return True
        swap = list(range(n))
        swap[0], swap[1] = 1, 0
        if self.permuted(swap) != self:
            return False
        cyc = [(j + 1) % n for j in range(n)]
        return self.permuted(cyc) == self

    def embed(self, arity: int, slots: Sequence[int]) -> "SparseLaurent":
        """Embed into ``arity`` variables, old variable i going to slots[i]."""
        res: dict[ExpVec, Fraction] = {}
        for k, c in self.terms.items():
            nk = [0] * arity
            for i, e in enumerate(k):
                nk[slots[i]] += e
            key = tuple(nk)
            s = res.get(key, QZERO) + c
            if s:
                res[key] = s
            else:
                res.pop(key, None)
        return SparseLaurent(arity, res, _prune=False)

    def merge_vars(self, keep: int, absorb: int) -> "SparseLaurent":
        """Set ``v_absorb = v_keep``; slot ``absorb`` becomes unused."""
        res: dict[ExpVec, Fraction] = {}
        for k, c in self.terms.items():
            nk = list(k)
            nk[keep] += nk[absorb]
            nk[absorb] = 0
            key = tuple(nk)
            s = res.get(key, QZERO) + c
            if s:
                res[key] = s
            else:
                res.pop(key, None)
        return SparseLaurent(self.arity, res, _prune=False)

    def principal(self) -> dict[int, Fraction]:
        """Set all variables equal; returns univariate exponent -> coefficient."""
        den, numerators = over_common_denominator(self.terms.values())
        res: dict[int, int] = {}
        for k, c in zip(self.terms, numerators):
            e = sum(k)
            s = res.get(e, 0) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return {e: Fraction(c, den) for e, c in res.items()}

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    # -- exact division -----------------------------------------------------

    def divide_var_binomial(self, a: int, b: int, sign: int) -> "SparseLaurent":
        """Exact division by ``v_a - sign*v_b`` (sign is +1 or -1)."""
        if a == b:
            raise ValueError("binomial needs distinct variables")
        # the quotient's coefficients are signed sums of this one's, so they
        # are integers over the lcm of its denominators
        den, numerators = over_common_denominator(self.terms.values())
        layers: dict[int, dict[ExpVec, int]] = {}
        for k, c in zip(self.terms, numerators):
            layers.setdefault(k[a], {})[k[:a] + (0,) + k[a + 1:]] = c
        if not layers:
            return SparseLaurent.zero(self.arity)
        hi, lo = max(layers), min(layers)
        quot: dict[ExpVec, int] = {}
        carry: dict[ExpVec, int] = {}
        for e in range(hi, lo - 1, -1):
            step: dict[ExpVec, int] = dict(layers.get(e, {}))
            for k, c in carry.items():
                nk = k[:b] + (k[b] + 1,) + k[b + 1:]
                v = c if sign > 0 else -c
                s = step.get(nk, 0) + v
                if s:
                    step[nk] = s
                else:
                    step.pop(nk, None)
            if e > lo:
                for k, c in step.items():
                    quot[k[:a] + (e - 1,) + k[a + 1:]] = c
                carry = step
            else:
                if step:
                    raise ExactDivisionError(
                        f"remainder dividing by v{a} {'-' if sign > 0 else '+'} v{b}")
        return SparseLaurent(self.arity, {k: Fraction(c, den) for k, c in quot.items()},
                             _prune=False)

    def divide_var_linear(self, a: int, c0: Fraction) -> "SparseLaurent":
        """Exact division by ``v_a - c0`` for a rational constant c0."""
        if c0 == 0:
            # v_a is a unit here: just shift the exponent down
            return SparseLaurent(self.arity, {
                k[:a] + (k[a] - 1,) + k[a + 1:]: c
                for k, c in self.terms.items()}, _prune=False)
        layers: dict[int, dict[ExpVec, Fraction]] = {}
        for k, c in self.terms.items():
            layers.setdefault(k[a], {})[k[:a] + (0,) + k[a + 1:]] = c
        if not layers:
            return SparseLaurent.zero(self.arity)
        hi, lo = max(layers), min(layers)
        quot: dict[ExpVec, Fraction] = {}
        carry: dict[ExpVec, Fraction] = {}
        for e in range(hi, lo - 1, -1):
            step: dict[ExpVec, Fraction] = dict(layers.get(e, {}))
            for k, c in carry.items():
                s = step.get(k, QZERO) + c * c0
                if s:
                    step[k] = s
                else:
                    step.pop(k, None)
            if e > lo:
                for k, c in step.items():
                    quot[k[:a] + (e - 1,) + k[a + 1:]] = c
                carry = step
            else:
                if step:
                    raise ExactDivisionError(f"remainder dividing by v{a} - {qstr(c0)}")
        return SparseLaurent(self.arity, quot, _prune=False)

    # -- JSON wire format -----------------------------------------------------

    def to_json(self) -> list:
        return [[list(k), qstr(c)] for k, c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, arity: int, data: Iterable) -> "SparseLaurent":
        terms = {tuple(int(e) for e in key): parse_q(c) for key, c in data}
        if any(len(k) != arity for k in terms):
            raise ValueError("exponent vector of wrong length")
        return cls(arity, terms)


# Denominator factor keys for BinomialFraction:
#   ("D", a, b)  = v_a - v_b   with a < b
#   ("S", a, b)  = v_a + v_b   with a < b
#   ("L", a, c)  = v_a - c     with c a Fraction
FactorKey = tuple


def factor_diff(a: int, b: int) -> tuple[FactorKey, int]:
    """Normalized key for v_a - v_b; the second element is the sign flip."""
    if a < b:
        return ("D", a, b), 1
    return ("D", b, a), -1


def factor_sum(a: int, b: int) -> FactorKey:
    return ("S", min(a, b), max(a, b))


def factor_lin(a: int, c: Fraction) -> FactorKey:
    return ("L", a, Fraction(c))


def _factor_poly(arity: int, key: FactorKey) -> SparseLaurent:
    kind = key[0]
    if kind == "D":
        return SparseLaurent.var(arity, key[1]) - SparseLaurent.var(arity, key[2])
    if kind == "S":
        return SparseLaurent.var(arity, key[1]) + SparseLaurent.var(arity, key[2])
    if kind == "L":
        return SparseLaurent.var(arity, key[1]) - SparseLaurent.const(arity, key[2])
    raise ValueError(f"unknown factor {key}")


class BinomialFraction:
    """A SparseLaurent numerator over a multiset of binomial/linear factors."""

    __slots__ = ("num", "den")

    def __init__(self, num: SparseLaurent, den: Mapping[FactorKey, int] | None = None):
        self.num = num
        self.den: dict[FactorKey, int] = {k: e for k, e in (den or {}).items() if e}

    @classmethod
    def zero(cls, arity: int) -> "BinomialFraction":
        return cls(SparseLaurent.zero(arity))

    def mul_laurent(self, p: SparseLaurent) -> "BinomialFraction":
        return BinomialFraction(self.num * p, self.den)

    def scale(self, c: Fraction) -> "BinomialFraction":
        return BinomialFraction(self.num.scale(c), self.den)

    def div_factor(self, key: FactorKey, power: int = 1) -> "BinomialFraction":
        den = dict(self.den)
        den[key] = den.get(key, 0) + power
        return BinomialFraction(self.num, den)

    def __add__(self, other: "BinomialFraction") -> "BinomialFraction":
        arity = self.num.arity
        keys = set(self.den) | set(other.den)
        den = {k: max(self.den.get(k, 0), other.den.get(k, 0)) for k in keys}
        num_a, num_b = self.num, other.num
        for k, e in den.items():
            fa = e - self.den.get(k, 0)
            fb = e - other.den.get(k, 0)
            if fa or fb:
                fpoly = _factor_poly(arity, k)
                for _ in range(fa):
                    num_a = num_a * fpoly
                for _ in range(fb):
                    num_b = num_b * fpoly
        return BinomialFraction(num_a + num_b, den)

    def __mul__(self, other: "BinomialFraction") -> "BinomialFraction":
        den = dict(self.den)
        for k, e in other.den.items():
            den[k] = den.get(k, 0) + e
        return BinomialFraction(self.num * other.num, den)

    def __neg__(self) -> "BinomialFraction":
        return BinomialFraction(-self.num, self.den)

    def __sub__(self, other: "BinomialFraction") -> "BinomialFraction":
        return self + (-other)

    def finalize(self) -> SparseLaurent:
        """Clear the denominator by exact division; raises if any factor fails."""
        num = self.num
        for key, e in self.den.items():
            kind = key[0]
            for _ in range(e):
                if kind == "D":
                    num = num.divide_var_binomial(key[1], key[2], +1)
                elif kind == "S":
                    num = num.divide_var_binomial(key[1], key[2], -1)
                else:
                    num = num.divide_var_linear(key[1], key[2])
        return num

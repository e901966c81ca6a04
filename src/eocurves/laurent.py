"""Sparse multivariate Laurent polynomials over exact rationals.

A polynomial is a map from integer exponent vectors (entries may be
negative) to nonzero ``int`` numerators, over one positive ``int``
denominator shared by every term.  The form is canonical: the denominator
is coprime to the numerators taken together, so it is the lcm of the
reduced term denominators, and two values are equal iff their arity,
denominator and numerator maps are.  Every kernel works in integers;
``terms`` is a ``Fraction`` view built on demand.

The kernels keep the term order a Fraction-by-Fraction accumulation gives:
a key whose partial sum reaches zero is dropped and re-enters at the end.
``eval_float`` sums the terms in that order, so float probes depend on it.

``sum_over_divisors`` adds terms over products of the divisors
``v_a - v_b``, ``v_a + v_b`` and ``v_a - c`` and divides the sum out
exactly.  It serves only the (0,3) base cases of the two recursions,
whose unstable two-point inputs give terms that clear their denominators
only in the sum; every stable term divides on its own by
``divide_var_binomial``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ExactDivisionError, NonzeroResidue
from .rationals import QZERO, qstr, parse_q

ExpVec = tuple[int, ...]
# (a, b, s): v_a - s*v_b, or v_a - s when b is None
Divisor = tuple[int, int | None, Fraction | int]


class SparseLaurent:
    """A Laurent polynomial in ``arity`` variables: ``num[k] / den`` per term."""

    __slots__ = ("arity", "num", "den")

    def __init__(self, arity: int, terms: Mapping[ExpVec, Fraction | int] | None = None):
        self.arity = arity
        coeffs = [(k, Fraction(c)) for k, c in (terms or {}).items() if c]
        # over the lcm of the reduced denominators the numerators are coprime to it
        self.den = lcm(*(c.denominator for _, c in coeffs))
        self.num = {k: c.numerator * (self.den // c.denominator) for k, c in coeffs}

    # -- constructors ---------------------------------------------------

    @classmethod
    def _new(cls, arity: int, num: dict[ExpVec, int], den: int = 1) -> "SparseLaurent":
        """Wrap numerators that are already canonical (no copy, no check)."""
        f = object.__new__(cls)
        f.arity, f.num, f.den = arity, num, den
        return f

    @classmethod
    def from_ints(cls, arity: int, num: dict[ExpVec, int], den: int = 1) -> "SparseLaurent":
        """``num[k] / den`` per term, for zero-free ``num`` and ``den > 0``.

        The dict is taken over, not copied; a factor common to ``den`` and
        every numerator is divided out.
        """
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                return cls._new(arity, {k: v // g for k, v in num.items()}, den // g)
        return cls._new(arity, num, den)

    @classmethod
    def zero(cls, arity: int) -> "SparseLaurent":
        return cls._new(arity, {})

    @classmethod
    def const(cls, arity: int, c: Fraction | int) -> "SparseLaurent":
        c = Fraction(c)
        if c == 0:
            return cls.zero(arity)
        return cls._new(arity, {(0,) * arity: c.numerator}, c.denominator)

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

    @property
    def terms(self) -> Mapping[ExpVec, Fraction]:
        """Read-only ``Fraction`` view of the coefficients, in term order."""
        den = self.den
        return MappingProxyType({k: Fraction(n, den) for k, n in self.num.items()})

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseLaurent):
            return NotImplemented
        return (self.arity == other.arity and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self.num.items())))

    def __repr__(self) -> str:
        if not self.num:
            return f"SparseLaurent({self.arity}, 0)"
        bits = []
        for key in sorted(self.num)[:8]:
            bits.append(f"{qstr(Fraction(self.num[key], self.den))}*t^{key}")
        more = "..." if len(self.num) > 8 else ""
        return f"SparseLaurent({self.arity}, {' + '.join(bits)}{more})"

    def __len__(self) -> int:
        return len(self.num)

    # -- ring operations --------------------------------------------------

    def _plus(self, other: "SparseLaurent", sign: int) -> "SparseLaurent":
        """self + sign * other, over the lcm of the two denominators."""
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        d = lcm(self.den, other.den)
        up = d // self.den
        res = dict(self.num) if up == 1 else {k: c * up for k, c in self.num.items()}
        up = sign * (d // other.den)
        for k, c in other.num.items():
            s = res.get(k, 0) + c * up
            if s:
                res[k] = s
            else:
                res.pop(k, None)
        return SparseLaurent.from_ints(self.arity, res, d)

    def __add__(self, other: "SparseLaurent") -> "SparseLaurent":
        return self._plus(other, 1)

    def __sub__(self, other: "SparseLaurent") -> "SparseLaurent":
        return self._plus(other, -1)

    def __neg__(self) -> "SparseLaurent":
        return SparseLaurent._new(self.arity, {k: -c for k, c in self.num.items()},
                                  self.den)

    def __mul__(self, other: "SparseLaurent | Fraction | int") -> "SparseLaurent":
        if isinstance(other, (Fraction, int)):
            return self.scale(Fraction(other))
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        res: dict[ExpVec, int] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = tuple(map(add, k1, k2))
                s = res.get(k, 0) + c1 * c2
                if s:
                    res[k] = s
                else:
                    res.pop(k, None)
        return SparseLaurent.from_ints(self.arity, res, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "SparseLaurent":
        if c == 0:
            return SparseLaurent.zero(self.arity)
        p, q = c.numerator, c.denominator
        # what p shares with den cancels at once; what q shares with the
        # numerators is left to from_ints
        g = gcd(p, self.den)
        up = p // g
        num = {k: v * up for k, v in self.num.items()}
        if q == 1:
            return SparseLaurent._new(self.arity, num, self.den // g)
        return SparseLaurent.from_ints(self.arity, num, self.den // g * q)

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
        res: dict[ExpVec, int] = {}
        for k, c in self.num.items():
            e = k[i]
            if e:
                res[k[:i] + (e - 1,) + k[i + 1:]] = c * e
        return SparseLaurent.from_ints(self.arity, res, self.den)

    def integrate(self, i: int, base: Fraction | None = None) -> "SparseLaurent":
        """Termwise antiderivative in variable ``i``.

        Raises NonzeroResidue if a ``v_i^-1`` term is present (a log would
        appear).  With ``base`` given, normalizes so the result vanishes at
        ``v_i = base``.
        """
        for k, c in self.num.items():
            if k[i] == -1:
                raise NonzeroResidue(f"residue {qstr(Fraction(c, self.den))} "
                                     f"at exponent -1 of variable {i}")
        # every new exponent e + 1 divides m, so c / (e + 1) = c (m / (e + 1)) / m
        m = lcm(*{k[i] + 1 for k in self.num})
        res = {k[:i] + (k[i] + 1,) + k[i + 1:]: c * (m // (k[i] + 1))
               for k, c in self.num.items()}
        anti = SparseLaurent.from_ints(self.arity, res, self.den * m)
        if base is None:
            return anti
        at_base = anti.eval_partial(i, base)
        return anti - at_base

    # -- substitution and evaluation ---------------------------------------

    def eval_partial(self, i: int, value: Fraction | int) -> "SparseLaurent":
        """Substitute ``v_i = value`` (exponent of slot i becomes 0)."""
        if not self.num:
            return self
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        exps = {k[i] for k in self.num}
        if p == 0:
            if min(exps) < 0:
                raise ZeroDivisionError("negative power at 0")
            # only the terms free of v_i survive
            factor, scale = {0: 1}, 1
        else:
            # (p/q)^e = p^(e+lo) q^(hi-e) / (q^hi p^lo), with both powers >= 0
            hi, lo = max(0, max(exps)), max(0, -min(exps))
            factor = {e: p ** (e + lo) * q ** (hi - e) for e in exps}
            scale = q ** hi * p ** lo
            if scale < 0:
                factor = {e: -f for e, f in factor.items()}
                scale = -scale
        res: dict[ExpVec, int] = {}
        for k, c in self.num.items():
            f = factor.get(k[i])
            if f is None:
                continue
            nk = k[:i] + (0,) + k[i + 1:]
            s = res.get(nk, 0) + c * f
            if s:
                res[nk] = s
            else:
                res.pop(nk, None)
        return SparseLaurent.from_ints(self.arity, res, self.den * scale)

    def eval_all(self, values: Sequence[Fraction]) -> Fraction:
        total = QZERO
        for k, c in self.num.items():
            term = Fraction(c)
            for e, v in zip(k, values):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return total / self.den

    def eval_float(self, values: Sequence[float]) -> float:
        # int / int rounds correctly, exactly as float(Fraction) does
        den = self.den
        total = 0.0
        for k, c in self.num.items():
            term = c / den
            for e, v in zip(k, values):
                if e:
                    term *= v ** e
            total += term
        return total

    def permuted(self, perm: Sequence[int]) -> "SparseLaurent":
        """Relabel variables: new slot j carries old slot perm[j]."""
        if self.arity < 2:
            # the one relabelling there is; itemgetter of one index gives no tuple
            return SparseLaurent._new(self.arity, dict(self.num), self.den)
        key = itemgetter(*perm)
        return SparseLaurent._new(self.arity, {key(k): c for k, c in self.num.items()},
                                  self.den)

    def relabel(self, arity: int, key: Callable[[ExpVec], ExpVec]) -> "SparseLaurent":
        """Move each term to exponent ``key(k)`` in ``arity`` variables.

        ``key`` must be one-to-one on the exponents present.
        """
        return SparseLaurent._new(arity, {key(k): c for k, c in self.num.items()}, self.den)

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
        res: dict[ExpVec, int] = {}
        for k, c in self.num.items():
            nk = [0] * arity
            for i, e in enumerate(k):
                nk[slots[i]] += e
            key = tuple(nk)
            s = res.get(key, 0) + c
            if s:
                res[key] = s
            else:
                res.pop(key, None)
        return SparseLaurent.from_ints(arity, res, self.den)

    def merge_vars(self, keep: int, absorb: int) -> "SparseLaurent":
        """Set ``v_absorb = v_keep``; slot ``absorb`` becomes unused."""
        res: dict[ExpVec, int] = {}
        for k, c in self.num.items():
            nk = list(k)
            nk[keep] += nk[absorb]
            nk[absorb] = 0
            key = tuple(nk)
            s = res.get(key, 0) + c
            if s:
                res[key] = s
            else:
                res.pop(key, None)
        return SparseLaurent.from_ints(self.arity, res, self.den)

    def principal(self) -> dict[int, Fraction]:
        """Set all variables equal; returns univariate exponent -> coefficient."""
        res: dict[int, int] = {}
        for k, c in self.num.items():
            e = sum(k)
            s = res.get(e, 0) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return {e: Fraction(c, self.den) for e, c in res.items()}

    def total_degree(self) -> int:
        return max((sum(k) for k in self.num), default=0)

    # -- exact division -----------------------------------------------------

    def divide_var_binomial(self, a: int, b: int, sign: int) -> "SparseLaurent":
        """Exact division by ``v_a - sign*v_b`` (sign is +1 or -1)."""
        if a == b:
            raise ValueError("binomial needs distinct variables")
        return self._divide(a, b, sign, 1, f"v{a} {'-' if sign > 0 else '+'} v{b}")

    def divide_var_linear(self, a: int, c0: Fraction) -> "SparseLaurent":
        """Exact division by ``v_a - c0`` for a rational constant c0."""
        if c0 == 0:
            # v_a is a unit here: just shift the exponent down
            return SparseLaurent._new(self.arity, {
                k[:a] + (k[a] - 1,) + k[a + 1:]: c
                for k, c in self.num.items()}, self.den)
        c0 = Fraction(c0)
        return self._divide(a, None, c0.numerator, c0.denominator, f"v{a} - {qstr(c0)}")

    def _divide(self, a: int, b: int | None, p: int, q: int,
                divisor: str) -> "SparseLaurent":
        """Exact division by ``v_a - (p/q) v_b``, or by ``v_a - p/q`` when b is None.

        Synthetic division from the highest power of ``v_a`` down.
        """
        layers: dict[int, dict[ExpVec, int]] = {}
        for k, c in self.num.items():
            layers.setdefault(k[a], {})[k[:a] + (0,) + k[a + 1:]] = c
        if not layers:
            return SparseLaurent.zero(self.arity)
        hi, lo = max(layers), min(layers)
        quot: dict[ExpVec, int] = {}
        carry: dict[ExpVec, int] = {}
        for e in range(hi, lo - 1, -1):
            # step holds q^(hi-e) times the quotient's v_a^(e-1) layer: this
            # layer plus (p/q) v_b times the layer above
            lift = q ** (hi - e)
            step = {k: c * lift for k, c in layers.get(e, {}).items()}
            for k, c in carry.items():
                if b is not None:
                    k = k[:b] + (k[b] + 1,) + k[b + 1:]
                s = step.get(k, 0) + c * p
                if s:
                    step[k] = s
                else:
                    step.pop(k, None)
            if e > lo:
                down = q ** (e - lo - 1)
                for k, c in step.items():
                    quot[k[:a] + (e - 1,) + k[a + 1:]] = c * down
                carry = step
            elif step:
                raise ExactDivisionError(f"remainder dividing by {divisor}")
        return SparseLaurent.from_ints(self.arity, quot, self.den * q ** (hi - lo - 1))

    # -- JSON wire format -----------------------------------------------------

    def to_json(self) -> list:
        return [[list(k), qstr(Fraction(self.num[k], self.den))] for k in sorted(self.num)]

    @classmethod
    def from_json(cls, arity: int, data: Iterable) -> "SparseLaurent":
        terms = {tuple(int(e) for e in key): parse_q(c) for key, c in data}
        if any(len(k) != arity for k in terms):
            raise ValueError("exponent vector of wrong length")
        return cls(arity, terms)


def sum_over_divisors(arity: int,
                      terms: Iterable[tuple[SparseLaurent, Sequence[Divisor]]]) -> SparseLaurent:
    """The polynomial ``sum num / prod(divisors)`` over ``(num, divisors)`` terms.

    A divisor ``(a, b, s)`` is ``v_a - s*v_b`` with s = +1 or -1, or
    ``v_a - s`` when ``b`` is None.  Terms over the same divisor multiset
    are added first.  The groups are then summed in order of appearance,
    each addition bringing the running sum and the group over the lcm of
    their divisors, and the sum is divided by each divisor in turn.  A
    remainder raises ExactDivisionError naming the divisor.
    """
    groups: dict[frozenset, tuple[Counter, SparseLaurent]] = {}
    for num, divisors in terms:
        mult: Counter = Counter()
        for a, b, s in divisors:
            if b is not None and a > b:
                # v_a - s v_b is -s (v_b - s v_a)
                a, b = b, a
                if s == 1:
                    num = -num
            mult[a, b, s] += 1
        key = frozenset(mult.items())
        if key in groups:
            num = groups[key][1] + num
        groups[key] = (mult, num)
    total, common = SparseLaurent.zero(arity), Counter()
    for mult, num in groups.values():
        for d in common | mult:
            if mult[d] != common[d]:
                a, b, s = d
                factor = SparseLaurent.var(arity, a) - (
                    SparseLaurent.const(arity, s) if b is None
                    else SparseLaurent.var(arity, b, coeff=s))
                for _ in range(mult[d] - common[d]):
                    total = total * factor
                for _ in range(common[d] - mult[d]):
                    num = num * factor
        common |= mult
        total = total + num
    for (a, b, s), e in common.items():
        for _ in range(e):
            total = (total.divide_var_linear(a, s) if b is None
                     else total.divide_var_binomial(a, b, s))
    return total

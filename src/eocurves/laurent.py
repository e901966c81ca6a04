"""Sparse multivariate Laurent polynomials over exact rationals.

A polynomial is a map from integer exponent vectors (entries may be
negative) to nonzero ``int`` numerators, over one positive ``int``
denominator shared by every term.  The form is canonical: the denominator
is coprime to the numerators taken together, so it is the lcm of the
reduced term denominators, and two values are equal iff their arity,
denominator and numerator maps are.  Every kernel works in integers;
``terms`` is a ``Fraction`` view built on demand.

Exponent vectors are stored packed, one ``int`` per term (after Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Each slot owns a 16-bit field
(``FIELD_BITS``) holding ``e + 2**15`` (``BIAS``), slot 0 in the most
significant field, so sorting the ints sorts the vectors lexicographically.
Exponents must lie in ``[-32768, 32767]`` (``EXP_MIN``, ``EXP_MAX``): the
constructors raise OverflowError naming one outside, and so does every
kernel whose result would hold one, before any field can wrap.  The kernels decide this from a bound on |exponent| carried
with each value (``_reach``) and fall back to each slot's exact range only
near the edge, so no check runs per term pair.  Products add keys and
subtract the bias vector; derivatives, integrals, substitutions and
embeddings shift or mask fields; ``principal`` sums the fields by casting
out: a key is congruent to its field sum mod ``2**FIELD_BITS - 1``.

The packing stays inside this module.  ``num`` and ``terms`` are read-only
views keyed by exponent tuples, in term order; the constructor,
``relabel`` and ``select`` take or hand out tuples, and ``to_json`` writes
them in sorted order.

The kernels keep the term order a Fraction-by-Fraction accumulation gives:
a key whose partial sum reaches zero is dropped and re-enters at the end.
``eval_float`` sums the terms in that order, so float probes depend on it.

``sum_over_divisors`` adds terms over products of the divisors
``v_a - v_b``, ``v_a + v_b`` and ``v_a - c`` for an integer c, and divides
the sum out exactly.  It serves only the (0,3) base cases of the two
recursions, whose unstable two-point inputs give terms that clear their
denominators only in the sum; every stable term divides on its own by
``divide_var_binomial``.
"""

from __future__ import annotations

import struct
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ExactDivisionError, NonzeroResidue
from .rationals import qstr

ExpVec = tuple[int, ...]
# (a, b, s): v_a - s*v_b, or v_a - s when b is None
Divisor = tuple[int, int | None, int]

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
BIAS = 1 << (FIELD_BITS - 1)
EXP_MIN, EXP_MAX = -BIAS, BIAS - 1
# a key minus the bias vector is sum e_i 2^(FIELD_BITS j_i), congruent to
# sum e_i mod FIELD_MASK; _HALF centres the residue on zero
_HALF = FIELD_MASK // 2


class _Layout:
    """The packed keys of one arity."""

    __slots__ = ("bias", "shifts", "pack", "unpack")

    def __init__(self, arity: int):
        # a field holding e + BIAS is the 16-bit two's complement of e with
        # its top bit flipped: struct does the conversion and the range check
        assert FIELD_BITS == 16
        fmt = struct.Struct(f">{arity}h")
        size, pack, unpack = fmt.size, fmt.pack, fmt.unpack
        bias = int.from_bytes(b"\x80\x00" * arity, "big")
        self.bias = bias  # the key of the zero vector: BIAS in every field
        self.shifts = tuple(FIELD_BITS * (arity - 1 - i) for i in range(arity))
        self.pack: Callable[[ExpVec], int] = lambda k: int.from_bytes(pack(*k), "big") ^ bias
        self.unpack: Callable[[int], ExpVec] = lambda k: unpack((k ^ bias).to_bytes(size, "big"))


_layout = cache(_Layout)


def _fit(lo: int, hi: int, slot: int) -> int:
    """The reach of exponents ``lo..hi`` of a slot; OverflowError if they leave the field."""
    for e in (lo, hi):
        if not EXP_MIN <= e <= EXP_MAX:
            raise OverflowError(f"exponent {e} of variable {slot} is outside the "
                                f"{FIELD_BITS}-bit field [{EXP_MIN}, {EXP_MAX}]")
    return max(-lo, hi)


def _packed(arity: int, num: Mapping[ExpVec, int]) -> tuple[dict[int, int], int]:
    """Tuple-keyed numerators as packed ones, with their largest |exponent|."""
    if not num:
        return {}, 0
    for k in num:
        if len(k) != arity:
            raise ValueError("exponent vector of wrong length")
    reach = 0
    if arity:
        lo, hi = min(map(min, num)), max(map(max, num))
        for e in (lo, hi):
            if not EXP_MIN <= e <= EXP_MAX:
                _fit(e, e, next(k.index(e) for k in num if e in k))
        reach = max(-lo, hi)
    pack = _layout(arity).pack
    return {pack(k): c for k, c in num.items()}, reach


class SparseLaurent:
    """A Laurent polynomial in ``arity`` variables: numerator / ``den`` per term."""

    # _num maps packed exponent keys to numerators; _reach bounds |exponent|
    __slots__ = ("arity", "_num", "den", "_reach")

    def __init__(self, arity: int, terms: Mapping[ExpVec, Fraction | int] | None = None):
        coeffs = [(k, Fraction(c)) for k, c in (terms or {}).items() if c]
        # over the lcm of the reduced denominators the numerators are coprime to it
        den = lcm(*(c.denominator for _, c in coeffs))
        num, reach = _packed(arity, {k: c.numerator * (den // c.denominator)
                                     for k, c in coeffs})
        self.arity, self._num, self.den, self._reach = arity, num, den, reach

    # -- constructors ---------------------------------------------------

    @classmethod
    def _new(cls, arity: int, num: dict[int, int], den: int, reach: int) -> "SparseLaurent":
        """Wrap packed numerators that are already canonical (no copy, no check)."""
        f = object.__new__(cls)
        f.arity, f._num, f.den, f._reach = arity, num, den, reach
        return f

    @classmethod
    def _reduced(cls, arity: int, num: dict[int, int], den: int,
                 reach: int) -> "SparseLaurent":
        """``num[k] / den`` per packed term, a factor common to all divided out."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                return cls._new(arity, {k: v // g for k, v in num.items()}, den // g, reach)
        return cls._new(arity, num, den, reach)

    @classmethod
    def zero(cls, arity: int) -> "SparseLaurent":
        return cls._new(arity, {}, 1, 0)

    @classmethod
    def const(cls, arity: int, c: Fraction | int) -> "SparseLaurent":
        c = Fraction(c)
        if c == 0:
            return cls.zero(arity)
        return cls._new(arity, {_layout(arity).bias: c.numerator}, c.denominator, 0)

    @classmethod
    def var(cls, arity: int, i: int, power: int = 1,
            coeff: Fraction | int = 1) -> "SparseLaurent":
        return cls.in_slot(arity, i, {power: coeff})

    @classmethod
    def in_slot(cls, arity: int, slot: int,
                coeffs: Mapping[int, Fraction | int]) -> "SparseLaurent":
        """A Laurent polynomial in variable ``slot`` alone, exponent -> coefficient."""
        layout = _layout(arity)
        bias, s = layout.bias, layout.shifts[slot]
        fracs = [(e, Fraction(c)) for e, c in coeffs.items() if c]
        den = lcm(*(c.denominator for _, c in fracs))
        reach = max((_fit(e, e, slot) for e, _ in fracs), default=0)
        return cls._new(arity, {bias + (e << s): c.numerator * (den // c.denominator)
                                for e, c in fracs}, den, reach)

    # -- basics ----------------------------------------------------------

    @property
    def num(self) -> Mapping[ExpVec, int]:
        """Read-only view of the numerators by exponent vector, in term order."""
        return MappingProxyType(dict(zip(map(_layout(self.arity).unpack, self._num),
                                         self._num.values())))

    @property
    def terms(self) -> Mapping[ExpVec, Fraction]:
        """Read-only ``Fraction`` view of the coefficients, in term order."""
        den, unpack = self.den, _layout(self.arity).unpack
        return MappingProxyType({unpack(k): Fraction(n, den) for k, n in self._num.items()})

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseLaurent):
            return NotImplemented
        return (self.arity == other.arity and self.den == other.den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        if not self._num:
            return f"SparseLaurent({self.arity}, 0)"
        unpack = _layout(self.arity).unpack
        bits = []
        for key in sorted(self._num)[:8]:
            bits.append(f"{qstr(Fraction(self._num[key], self.den))}*t^{unpack(key)}")
        more = "..." if len(self._num) > 8 else ""
        return f"SparseLaurent({self.arity}, {' + '.join(bits)}{more})"

    def __len__(self) -> int:
        return len(self._num)

    def _spans(self) -> list[tuple[int, int]]:
        """The exact (lowest, highest) exponent of each slot; (0, 0) when zero."""
        if not self._num:
            return [(0, 0)] * self.arity
        return [(min(col), max(col))
                for col in zip(*map(_layout(self.arity).unpack, self._num))]

    def _stepped_reach(self, slot: int, step: int) -> int:
        """The reach once ``step`` (+-1) is added to exponents of ``slot``.

        Raises OverflowError if one would leave the field.
        """
        if self._reach >= EXP_MAX:
            lo, hi = self._spans()[slot]
            _fit(lo + step, hi + step, slot)
        return min(self._reach + 1, BIAS)

    # -- ring operations --------------------------------------------------

    def _plus(self, other: "SparseLaurent", sign: int) -> "SparseLaurent":
        """self + sign * other, over the lcm of the two denominators."""
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        d = lcm(self.den, other.den)
        up = d // self.den
        res = dict(self._num) if up == 1 else {k: c * up for k, c in self._num.items()}
        up = sign * (d // other.den)
        for k, c in other._num.items():
            s = res.get(k, 0) + c * up
            if s:
                res[k] = s
            else:
                res.pop(k, None)
        return SparseLaurent._reduced(self.arity, res, d, max(self._reach, other._reach))

    @classmethod
    def sum(cls, arity: int, parts: Iterable["SparseLaurent"]) -> "SparseLaurent":
        """The sum of ``parts`` in one pass, in the term order of a left fold of ``+``."""
        parts = list(parts)
        if any(f.arity != arity for f in parts):
            raise ValueError("arity mismatch")
        d = lcm(*(f.den for f in parts))
        res: dict[int, int] = {}
        get, pop = res.get, res.pop
        for f in parts:
            up = d // f.den
            for k, c in f._num.items():
                s = get(k, 0) + c * up
                if s:
                    res[k] = s
                else:
                    pop(k, None)
        return cls._reduced(arity, res, d, max((f._reach for f in parts), default=0))

    def __add__(self, other: "SparseLaurent") -> "SparseLaurent":
        return self._plus(other, 1)

    def __sub__(self, other: "SparseLaurent") -> "SparseLaurent":
        return self._plus(other, -1)

    def __neg__(self) -> "SparseLaurent":
        return SparseLaurent._new(self.arity, {k: -c for k, c in self._num.items()},
                                  self.den, self._reach)

    def __mul__(self, other: "SparseLaurent | Fraction | int") -> "SparseLaurent":
        if isinstance(other, (Fraction, int)):
            return self.scale(Fraction(other))
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        reach = self._reach + other._reach
        if reach > EXP_MAX:
            reach = max((_fit(lo1 + lo2, hi1 + hi2, i) for i, ((lo1, hi1), (lo2, hi2))
                         in enumerate(zip(self._spans(), other._spans()))), default=0)
        a, b = self._num, other._num
        if len(a) > len(b):
            a, b = b, a
        # k1 + k2 carries BIAS twice in every field
        bias = _layout(self.arity).bias
        if len(a) == 1:
            (k1, c1), = a.items()
            shift = k1 - bias
            res = {k2 + shift: c1 * c2 for k2, c2 in b.items()}
        else:
            res = {}
            get, pop = res.get, res.pop
            for k1, c1 in a.items():
                shift = k1 - bias
                for k2, c2 in b.items():
                    k = k2 + shift
                    s = get(k, 0) + c1 * c2
                    if s:
                        res[k] = s
                    else:
                        pop(k, None)
        return SparseLaurent._reduced(self.arity, res, self.den * other.den, reach)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "SparseLaurent":
        if c == 0:
            return SparseLaurent.zero(self.arity)
        p, q = c.numerator, c.denominator
        # what p shares with den cancels at once; what q shares with the
        # numerators is left to _reduced
        g = gcd(p, self.den)
        up = p // g
        num = {k: v * up for k, v in self._num.items()}
        if q == 1:
            return SparseLaurent._new(self.arity, num, self.den // g, self._reach)
        return SparseLaurent._reduced(self.arity, num, self.den // g * q, self._reach)

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
        reach = self._stepped_reach(i, -1)
        s = _layout(self.arity).shifts[i]
        one = 1 << s
        res: dict[int, int] = {}
        for k, c in self._num.items():
            e = (k >> s & FIELD_MASK) - BIAS
            if e:
                res[k - one] = c * e
        return SparseLaurent._reduced(self.arity, res, self.den, reach)

    def integrate(self, i: int, base: Fraction | None = None) -> "SparseLaurent":
        """Termwise antiderivative in variable ``i``.

        Raises NonzeroResidue if a ``v_i^-1`` term is present (a log would
        appear).  With ``base`` given, normalizes so the result vanishes at
        ``v_i = base``.
        """
        s = _layout(self.arity).shifts[i]
        # the field of v_i^-1
        residue = BIAS - 1
        for k, c in self._num.items():
            if k >> s & FIELD_MASK == residue:
                raise NonzeroResidue(f"residue {qstr(Fraction(c, self.den))} "
                                     f"at exponent -1 of variable {i}")
        reach = self._stepped_reach(i, 1)
        # every new exponent e + 1 divides m, so c / (e + 1) = c (m / (e + 1)) / m
        m = lcm(*{(k >> s & FIELD_MASK) - residue for k in self._num})
        one = 1 << s
        res = {k + one: c * (m // ((k >> s & FIELD_MASK) - residue))
               for k, c in self._num.items()}
        anti = SparseLaurent._reduced(self.arity, res, self.den * m, reach)
        if base is None:
            return anti
        at_base = anti.eval_partial(i, base)
        return anti - at_base

    # -- substitution and evaluation ---------------------------------------

    def eval_partial(self, i: int, value: Fraction | int) -> "SparseLaurent":
        """Substitute ``v_i = value`` (exponent of slot i becomes 0)."""
        if not self._num:
            return self
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        s = _layout(self.arity).shifts[i]
        exps = {(k >> s & FIELD_MASK) - BIAS for k in self._num}
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
        res: dict[int, int] = {}
        for k, c in self._num.items():
            e = (k >> s & FIELD_MASK) - BIAS
            f = factor.get(e)
            if f is None:
                continue
            nk = k - (e << s)
            t = res.get(nk, 0) + c * f
            if t:
                res[nk] = t
            else:
                res.pop(nk, None)
        return SparseLaurent._reduced(self.arity, res, self.den * scale, self._reach)

    def vanishes_at_unit(self, r: int) -> bool:
        """Whether a one-variable polynomial is zero at ``v = r`` for r = 1 or -1."""
        if self.arity != 1:
            raise ValueError("one-variable kernel")
        # a key is e + BIAS with BIAS even, so odd keys are odd powers
        odd = sum(c for k, c in self._num.items() if k & 1) if r == -1 else 0
        return sum(self._num.values()) == 2 * odd

    def homogenize(self, a: int, b: int, c: int, d: int) -> tuple["SparseLaurent", int, int]:
        """``(h, lo, hi)``: h = sum_e n_e (a u + b)^(e - lo) (c u + d)^(hi - e) / den.

        One variable, integers a..d, exponents lo..hi: self((a u + b)/(c u + d))
        is h (a u + b)^lo (c u + d)^-hi.  Horner's rule on a dense int list.
        """
        if self.arity != 1:
            raise ValueError("one-variable kernel")
        lo, hi = min(self._num, default=BIAS), max(self._num, default=BIAS)
        h: list[int] = []
        dn = [1]  # (c u + d)^(hi - e), low to high
        for k in range(hi, lo - 1, -1):
            n = self._num.get(k, 0)
            h = [b * x + a * y + n * p for x, y, p in zip(h + [0], [0] + h, dn)]
            dn = [d * x + c * y for x, y in zip(dn + [0], [0] + dn)]
        res = {BIAS + i: x for i, x in enumerate(h) if x}
        reach = _fit(0, max(res, default=BIAS) - BIAS, 0)
        return SparseLaurent._reduced(1, res, self.den, reach), lo - BIAS, hi - BIAS

    def eval_float(self, values: Sequence[float]) -> float:
        # int / int rounds correctly, exactly as float(Fraction) does
        den, unpack = self.den, _layout(self.arity).unpack
        total = 0.0
        for k, c in self._num.items():
            term = c / den
            for e, v in zip(unpack(k), values):
                if e:
                    term *= v ** e
            total += term
        return total

    def relabel(self, arity: int, key: Callable[[ExpVec], ExpVec]) -> "SparseLaurent":
        """Move each term to exponent ``key(k)`` in ``arity`` variables.

        ``key`` must be one-to-one on the exponents present.
        """
        unpack = _layout(self.arity).unpack
        num, reach = _packed(arity, {key(unpack(k)): c for k, c in self._num.items()})
        return SparseLaurent._new(arity, num, self.den, reach)

    def select(self, keep: Callable[[ExpVec], bool]) -> "SparseLaurent":
        """The terms whose exponent vector satisfies ``keep``, in term order."""
        unpack = _layout(self.arity).unpack
        return SparseLaurent._reduced(
            self.arity, {k: c for k, c in self._num.items() if keep(unpack(k))},
            self.den, self._reach)

    def is_symmetric(self) -> bool:
        """Invariance under all variable permutations (checked on generators).

        The transposition of slots 0 and 1 and the n-cycle generate the
        symmetric group, so each term is looked up at both of its images in
        one pass, which stops at the first mismatch.  The terms are only
        read, so no term order can change.
        """
        n = self.arity
        if n <= 1:
            return True
        get = self._num.get
        top, second = FIELD_BITS * (n - 1), FIELD_BITS * (n - 2)
        low, rest = (1 << top) - 1, (1 << second) - 1
        for k, c in self._num.items():
            # swap the fields of slots 0 and 1; then new slot j carries old
            # slot j + 1: rotate the key left by one field
            if (get((k >> second & FIELD_MASK) << top | (k >> top) << second | k & rest) != c
                    or get((k & low) << FIELD_BITS | k >> top) != c):
                return False
        return True

    def embed(self, arity: int, slots: Sequence[int]) -> "SparseLaurent":
        """Embed into ``arity`` variables, old variable i going to slots[i].

        Old variables sent to one slot multiply there: their exponents add.
        """
        slots = tuple(slots)
        up, down, base, most = _mover(self.arity, arity, slots)
        reach = self._reach * most
        if reach > EXP_MAX:
            spans = self._spans()
            reach = max((_fit(sum(spans[i][0] for i, t in enumerate(slots) if t == slot),
                              sum(spans[i][1] for i, t in enumerate(slots) if t == slot),
                              slot) for slot in set(slots)), default=0)
        res: dict[int, int] = {}
        for k, c in self._num.items():
            nk = base
            for mask, s in up:
                nk += (k & mask) << s
            for mask, s in down:
                nk += (k & mask) >> s
            t = res.get(nk, 0) + c
            if t:
                res[nk] = t
            else:
                res.pop(nk, None)
        return SparseLaurent._reduced(arity, res, self.den, reach)

    def _exponent_sums(self) -> list[int]:
        """The sum of each term's exponents, in term order."""
        if self.arity * self._reach <= _HALF:
            # casting out: the key less the bias vector is congruent to the
            # sum mod FIELD_MASK, and |sum| <= _HALF picks the residue
            off = _HALF - _layout(self.arity).bias
            return [(k + off) % FIELD_MASK - _HALF for k in self._num]
        return list(map(sum, map(_layout(self.arity).unpack, self._num)))

    def principal(self) -> dict[int, Fraction]:
        """Set all variables equal; returns univariate exponent -> coefficient."""
        res: dict[int, int] = {}
        get, pop = res.get, res.pop
        for e, c in zip(self._exponent_sums(), self._num.values()):
            s = get(e, 0) + c
            if s:
                res[e] = s
            else:
                pop(e, None)
        return {e: Fraction(c, self.den) for e, c in res.items()}

    def total_degree(self) -> int:
        return max(self._exponent_sums(), default=0)

    # -- exact division -----------------------------------------------------

    def divide_var_binomial(self, a: int, b: int, sign: int) -> "SparseLaurent":
        """Exact division by ``v_a - sign*v_b`` (sign is +1 or -1)."""
        if a == b:
            raise ValueError("binomial needs distinct variables")
        return self._divide(a, b, sign, f"v{a} {'-' if sign > 0 else '+'} v{b}")

    def divide_var_linear(self, a: int, c0: int) -> "SparseLaurent":
        """Exact division by ``v_a - c0`` for a nonzero integer c0.

        Raises TypeError for a root that is not an ``int``.  A nonzero
        dividend over c0 = 0, where v_a is a unit, raises ExactDivisionError:
        the synthetic division leaves its lowest layer as a remainder.
        """
        if not isinstance(c0, int):
            raise TypeError(f"root {c0!r} is not an int")
        return self._divide(a, None, c0, f"v{a} - {c0}")

    def _divide(self, a: int, b: int | None, p: int, divisor: str) -> "SparseLaurent":
        """Exact division by ``v_a - p v_b``, or by ``v_a - p`` when b is None.

        Synthetic division from the highest power of ``v_a`` down.  An exact
        quotient has no exponent outside the dividend's range, so it keeps
        the dividend's reach.
        """
        shifts = _layout(self.arity).shifts
        sa = shifts[a]
        layers: dict[int, dict[int, int]] = {}
        for k, c in self._num.items():
            e = (k >> sa & FIELD_MASK) - BIAS
            layers.setdefault(e, {})[k - (e << sa)] = c
        if not layers:
            return SparseLaurent.zero(self.arity)
        hi, lo = max(layers), min(layers)
        # each layer passed raises the v_b exponent of a carried term by one;
        # an exact quotient never carries v_b^EXP_MAX, as the dividend has a
        # v_b exponent above every quotient's
        sb = shifts[b] if b is not None else 0
        guard = b is not None and self._reach + hi - lo > EXP_MAX
        one_b = 1 << sb if b is not None else 0
        quot: dict[int, int] = {}
        carry: dict[int, int] = {}
        for e in range(hi, lo - 1, -1):
            # the quotient's v_a^(e-1) layer: this layer plus p v_b times the layer above
            step = dict(layers.get(e, {}))
            if guard and any(k >> sb & FIELD_MASK == FIELD_MASK for k in carry):
                raise ExactDivisionError(f"remainder dividing by {divisor}")
            get, pop = step.get, step.pop
            for k, c in carry.items():
                k += one_b
                s = get(k, 0) + c * p
                if s:
                    step[k] = s
                else:
                    pop(k, None)
            if e > lo:
                at = (e - 1) << sa
                quot.update({k + at: c for k, c in step.items()})
                carry = step
            elif step:
                raise ExactDivisionError(f"remainder dividing by {divisor}")
        return SparseLaurent._reduced(self.arity, quot, self.den, self._reach)

    # -- JSON wire format -----------------------------------------------------

    def to_json(self) -> list:
        unpack = _layout(self.arity).unpack
        return [[list(unpack(k)), qstr(Fraction(c, self.den))]
                for k, c in sorted(self._num.items())]


@cache
def _mover(src: int, dst: int, slots: tuple[int, ...]
           ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int, int]:
    """How ``embed`` builds a key, and how many source slots share a target.

    A key is the sum of a constant, which holds each target's bias once, and
    of (mask, left shift) and (mask, right shift) blocks of source fields.
    Runs of source slots that land on consecutive target slots in order move
    as one block.
    """
    src_shifts, dst_shifts = _layout(src).shifts, _layout(dst).shifts
    blocks: list[list[int]] = []  # [mask, shift change]
    for i, t in enumerate(slots):
        field = FIELD_MASK << src_shifts[i]
        change = dst_shifts[t] - src_shifts[i]
        if i and t == slots[i - 1] + 1:  # the field just below the last block's
            blocks[-1][0] |= field
        else:
            blocks.append([field, change])
    hits = Counter(slots)
    base = sum((1 - hits[t]) * BIAS << dst_shifts[t] for t in range(dst))
    return (tuple((m, s) for m, s in blocks if s >= 0),
            tuple((m, -s) for m, s in blocks if s < 0), base, max(hits.values(), default=1))


def sum_over_divisors(arity: int,
                      terms: Iterable[tuple[SparseLaurent, Sequence[Divisor]]]) -> SparseLaurent:
    """The polynomial ``sum num / prod(divisors)`` over ``(num, divisors)`` terms.

    A divisor ``(a, b, s)`` is ``v_a - s*v_b`` with s = +1 or -1, or
    ``v_a - s`` when ``b`` is None.  Terms over the same divisor multiset
    are added first.  The groups are then summed in order of appearance,
    each addition bringing the running sum and the group over the lcm of
    their divisors, and the sum is divided by each divisor in turn.  A
    remainder raises ExactDivisionError naming the divisor.

    Each divisor's linear factor is built once per call and reused by every
    group that needs it; it is the same value a fresh build gives, and the
    products run in the same order, so the sum keeps its term order.
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
    factors: dict[Divisor, SparseLaurent] = {}
    for mult, num in groups.values():
        for d in common | mult:
            if mult[d] != common[d]:
                factor = factors.get(d)
                if factor is None:
                    a, b, s = d
                    factor = factors[d] = SparseLaurent.var(arity, a) - (
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

"""Plumbing shared by the two models.

Both models run one pipeline: counts, then Laplace-transform free
energies F_{g,n}, then the principal specialization S_m, then an equation
whose symbol is the spectral curve.  The model modules ``catalan`` and
``hurwitz`` keep the model-specific mathematics and serve as their own
records in ``wkb.MODELS``: each provides ``free_energy(g, n)``, the point
``BASE_POINT`` where free energies vanish, the exact Moebius map ``T_OF_Z``
(t of the curve coordinate z) and ``to_z``, which applies it,
``curve_symbol()``, ``base_s_primes(m_max)`` and the base-frame
``s_prime(m)`` of the assembled S_m.  For the Laplace probe each provides
``z_of_x_float`` (z at a float x), the count weight ``_laplace_weight``,
``LAPLACE_PROBES`` as (g, n, xs, cap), the sign ``LAPLACE_SIGN`` of the
x exponents and ``LAPLACE_EVEN_ONLY`` (its counts vanish at odd |mu|).
The helpers here take a model, or its free energy, count weight or
coordinate map, as an argument.

Both count recursions run on profile ids: every sorted profile they meet is
interned once by ``profile_id`` (``profile_ids`` maps a profile to its small
int id, ``profiles`` maps the id back).  Their memos are ``GenusTables``, one
``{id: count}`` table per genus, picked once per recursion entry.
``with_part`` and ``without_part`` add or remove one part of an id's profile
and return the new id; ``submultisets`` hands out a profile's splits as ids,
all of them and their mirrored half.  Ids are process-local: the cache file,
every printed answer and every error text key by the profile itself,
translated at the boundary through ``profiles``.

Every memo table of both models, of these helpers and of the characters is
recorded here by ``memo``, the id tables included; ``clear_caches`` empties
them all (the algebra kernels keep only structural caches of their own).
Ids are handed out again from 0 after it, so every table keyed by ids must
be recorded, to be emptied with the ids.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import neg
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .laurent import SparseLaurent
from .ratfunc import RatFunc

FreeEnergy = Callable[[int, int], SparseLaurent]

_tables: list = []  # every memo table, in the order recorded


def memo(table):
    """Record a memo table, so that ``clear_caches`` empties it; return it.

    A function is wrapped in ``functools.cache`` first, so this serves as a
    decorator; a ``dict`` or ``list`` is recorded as it is.
    """
    if not isinstance(table, (dict, list)):
        table = cache(table)
    _tables.append(table)
    return table


def clear_caches() -> None:
    """Empty every recorded memo table.

    It clears the objects recorded at import and looks no name up again, so
    a module attribute rebound to a wrapper (as a tracer does) hides none.
    """
    for table in _tables:
        if isinstance(table, (dict, list)):
            table.clear()
        else:
            table.cache_clear()


class CurveSymbol(NamedTuple):
    """On-shell y-derivative tower of a plane-curve symbol.

    ``tower(r)`` is (d/dy)^r A restricted to the curve, as a rational
    function of z; ``dz_factor`` converts the model's base derivative to
    d/dz (base = d/dx for the polynomial curve, x d/dx for the
    exponential one).
    """

    tower: Callable[[int], RatFunc]
    dz_factor: RatFunc


def sorted_key(entries: Iterable[int]) -> tuple[int, ...]:
    """A profile as ``profile_id`` interns it: sorted, largest part first."""
    return tuple(sorted(entries, reverse=True))


# the interned profiles: sorted, largest part first
profile_ids: dict[tuple[int, ...], int] = memo({})  # profile -> id
profiles: list[tuple[int, ...]] = memo([])  # id -> profile
_insertions: dict[int, dict[int, int]] = memo({})  # id -> {part: id with that part}
_removals: dict[int, dict[int, int]] = memo({})  # id -> {part: id with one fewer}


def profile_id(profile: tuple[int, ...]) -> int:
    """The id of a sorted profile, interned at its first use."""
    pid = profile_ids.get(profile)
    if pid is None:
        pid = profile_ids[profile] = len(profiles)
        profiles.append(profile)
    return pid


def with_part(pid: int, part: int) -> int:
    """The id of the profile ``pid`` with one more part.

    Read from the id's row of ``_insertions``, made at its first insertion:
    both count recursions build every sub-profile this way, and an int-keyed
    hit is cheaper than inserting, re-sorting or hashing a tuple.
    """
    try:
        return _insertions[pid][part]
    except KeyError:
        key = profiles[pid]
        at = bisect(key, -part, key=neg)
        grown = _insertions.setdefault(pid, {})[part] = profile_id(key[:at] + (part,) + key[at:])
        return grown


def without_part(pid: int, part: int) -> int:
    """The id of the profile ``pid`` with one ``part`` fewer, from ``_removals``
    as ``with_part`` reads ``_insertions``; ``part`` must be in the profile."""
    try:
        return _removals[pid][part]
    except KeyError:
        key = profiles[pid]
        at = key.index(part)
        shrunk = _removals.setdefault(pid, {})[part] = profile_id(key[:at] + key[at + 1:])
        return shrunk


class GenusTables(dict):
    """A count memo, genus -> {profile id: count}; ``len`` is the number of counts."""

    def __missing__(self, g: int) -> dict[int, object]:
        return self.setdefault(g, {})

    def __len__(self) -> int:
        return sum(map(len, self.values()))


def profile_items(memo: GenusTables) -> list:
    """The counts of a memo as ((g, profile), value), genus by genus."""
    return [((g, profiles[pid]), v) for g, table in memo.items() for pid, v in table.items()]


# (sub id, complement id, size, parts, labeled ways)
Split = tuple[int, int, int, int, int]


@memo
def submultisets(rest: int) -> tuple[tuple[Split, ...], tuple[Split, ...]]:
    """(whole, half) of (sub, complement, size, parts, labeled ways) splits.

    ``rest``, ``sub`` and the complement are profile ids; ``size`` is
    ``sum(sub)`` and ``parts`` is ``len(sub)``.  ``whole`` has each
    sub-multiset once, in mirror order: entry ``i`` and entry ``N - 1 - i``
    (of ``N``) trade ``sub`` with the complement and have equal ways, so
    their sizes add to the sum of ``rest``; an odd ``N``'s middle entry is
    its own complement.  ``half`` is the first half of ``whole`` at twice its
    ways, then the middle: summed over it, a term that a split and its
    complement share adds up to its sum over ``whole``, at half the visits.
    Memoized: both count recursions ask for the same profile again and again.
    """
    profile = profiles[rest]
    splits = [((), 0, 1)]
    for v in sorted(set(profile), reverse=True):
        m = profile.count(v)
        splits = [(sub + (v,) * k, size + k * v, ways * comb(m, k))
                  for sub, size, ways in splits for k in range(m + 1)]
    subs = [profile_id(sub) for sub, _, _ in splits]
    whole = tuple((pid, left, size, len(sub), ways)
                  for pid, left, (sub, size, ways) in zip(subs, reversed(subs), splits))
    mid, odd = divmod(len(whole), 2)
    half = tuple((sub, left, size, parts, 2 * ways)
                 for sub, left, size, parts, ways in whole[:mid]) + whole[mid:mid + odd]
    return whole, half


def is_stable(g: int, n: int) -> bool:
    """(g, n) has a free energy: g >= 0, n >= 1 and 2g - 2 + n > 0."""
    return g >= 0 and n >= 1 and 2 * g - 2 + n > 0


def stable_levels(level: int) -> list[tuple[int, int]]:
    """All stable (g, n) with 2g - 2 + n equal to the given level."""
    if level < 1:
        return []
    return [(g, level + 2 - 2 * g) for g in range((level + 1) // 2 + 1)]


def stable_splits(g: int, rest: Sequence[int]
                  ) -> Iterator[tuple[int, list[int], int, list[int]]]:
    """(g1, left, g2, right): labeled splits of ``rest`` and of the genus.

    Only splits where both (g1, |left| + 1) and (g2, |right| + 1) are
    stable are produced; they are the product terms of both recursions.
    """
    for mask in range(1 << len(rest)):
        left = [rest[i] for i in range(len(rest)) if mask >> i & 1]
        right = [rest[i] for i in range(len(rest)) if not mask >> i & 1]
        for g1 in range(g + 1):
            if is_stable(g1, len(left) + 1) and is_stable(g - g1, len(right) + 1):
                yield g1, left, g - g1, right


def diagonal_mixed(f: SparseLaurent) -> SparseLaurent:
    """d^2 f/dt_1 dt_2 on the diagonal t_1 = t_2, with one variable fewer."""
    return f.diff(0).diff(1).embed(f.arity - 1, [0, 0, *range(1, f.arity - 1)])


def principal_ratfunc(f: SparseLaurent, var: str = "t") -> RatFunc:
    """Specialize all variables to a single t, as a rational function."""
    return RatFunc(f.principal(), var=var)


@memo
def s_coefficient_assembled(free_energy: FreeEnergy, m: int) -> RatFunc:
    """S_m(t): the principally specialized F_{g,n}/n! summed over 2g-1+n = m, memoized."""
    if m < 2:
        raise ValueError("S_0 and S_1 contain logarithms; only m >= 2 here")
    total = RatFunc.zero("t")
    for g, n in stable_levels(m - 1):
        total = total + principal_ratfunc(free_energy(g, n)) * Fraction(1, factorial(n))
    return total


def laplace_sum_float(weight: Callable[[int, tuple[int, ...]], float], sign: int,
                      g: int, n: int, xs: Sequence[float], cap: int,
                      even_only: bool = False) -> float:
    """Sum of weight(g, key) prod x_i^(sign mu_i) over ordered mu, |mu| <= cap.

    ``key`` is mu sorted as ``profile_id`` interns it, largest part first,
    so a weight reads its memo through one ``profile_ids`` lookup; each key
    is asked for once per call.  The recursion carries the sorted prefix
    down.  The last slot's nonzero (weight, x_last power) pairs depend only
    on that sorted prefix, so they form one row, built at the first ordering
    of the prefix and dropped at its last (the non-increasing one).
    ``even_only`` skips odd |mu|, for a model whose counts vanish there.  The ordered profiles are
    summed in lexicographic order, each term as ``w * scale * x_last**e``,
    so the sum is reproducible to the last bit.
    """
    powers = [[x ** (sign * m) for m in range(cap + 1)] for x in xs]
    weights: dict[tuple[int, ...], float] = {}
    rows: dict[tuple[int, ...], list[tuple[float, float]]] = {}
    total = 0.0
    last = n - 1

    def build_row(key: tuple[int, ...], remaining: int) -> list[tuple[float, float]]:
        row = []
        # head keeps the parts >= m; it shrinks from the right as m grows
        head, tail = key, ()
        start, step = (2 - (cap - remaining) % 2, 2) if even_only else (1, 1)
        for m in range(start, remaining + 1, step):
            while head and head[-1] < m:
                head, tail = head[:-1], head[-1:] + tail
            full = head + (m,) + tail
            w = weights.get(full)
            if w is None:
                w = weights[full] = weight(g, full)
            if w:
                row.append((w, powers[last][m]))
        return row

    def rec(key: tuple[int, ...], remaining: int, scale: float, final: bool) -> None:
        # final: the ordered prefix is non-increasing, the last ordering of key
        nonlocal total
        slot = len(key)
        if slot == last:
            row = rows.pop(key, None) if final else rows.get(key)
            if row is None:
                row = build_row(key, remaining)
                if not final:
                    rows[key] = row
            for w, p in row:
                total += w * scale * p
            return
        for m in range(1, remaining - (last - slot) + 1):
            at = bisect(key, -m, key=neg)
            rec(key[:at] + (m,) + key[at:], remaining - m, scale * powers[slot][m],
                final and at == slot)

    rec((), cap, 1.0, True)
    return total


def laplace_probe_sum(model, g: int, n: int, xs: Sequence[float], cap: int) -> float:
    """A model's truncated Laplace sum of its counts at xs, over |mu| <= cap.

    The model module's weight and constants are read at each call, so a
    weight patched onto the module is the one summed.
    """
    return laplace_sum_float(model._laplace_weight, model.LAPLACE_SIGN, g, n, xs, cap,
                             model.LAPLACE_EVEN_ONLY)


def free_energy_float(model, g: int, n: int, xs: Sequence[float]) -> float:
    """A model's exact free energy at the t-points of xs on its curve.

    Each x goes to z by the model's ``z_of_x_float`` and z to t by its
    exact map ``T_OF_Z``, the one ``to_z`` applies, taken in floats.
    """
    a, b, c, d = map(float, model.T_OF_Z)
    ts = [(a * z + b) / (c * z + d) for z in map(model.z_of_x_float, xs)]
    return model.free_energy(g, n).eval_float(ts)

"""Brute-force oracles that pin expected counts in the tests.

They deliberately avoid the package's code paths: one-vertex maps and
cellular graphs are enumerated as raw pairings, and Hurwitz numbers are counted from
transposition factorizations in the symmetric group.  Two plain ``Fraction``
references follow: the exact value of a ``SparseLaurent`` at a point, and
the dessin numbers from the Catalan counts.  The module closes with the two
x-series that compare Hurwitz z-forms of x dS_m/dx with the count sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Iterable, Sequence

Q = Fraction


# ---------------------------------------------------------------------------
# maps and cellular graphs by explicit pairings
# ---------------------------------------------------------------------------

def one_vertex_map_count(g: int, degree: int) -> int:
    """Arrowed one-vertex maps of genus g: pairings of the half-edges.

    Pairings of the cyclically ordered half-edges are in bijection with
    arrowed maps; the genus of a gluing comes from counting faces as the
    cycles of (rotation o involution).
    """
    if degree % 2 or degree <= 0:
        return 0
    m = degree // 2
    half_edges = list(range(degree))
    count = 0
    for pairing in _pairings(half_edges):
        eps = {}
        for a, b in pairing:
            eps[a] = b
            eps[b] = a
        faces = _cycle_count(lambda h: (eps[h] + 1) % degree, degree)
        genus2 = 2 - (1 - m + faces)
        if genus2 == 2 * g:
            count += 1
    return count


def _pairings(items: list[int]) -> Iterable[list[tuple[int, int]]]:
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in _pairings(rest):
            yield [(first, items[i])] + sub


def _cycle_count(step, size: int) -> int:
    seen = [False] * size
    cycles = 0
    for start in range(size):
        if seen[start]:
            continue
        cycles += 1
        h = start
        while not seen[h]:
            seen[h] = True
            h = step(h)
    return cycles


def arrowed_graphs_by_genus(mu: Sequence[int]) -> dict[int, int]:
    """Brute-force arrowed cellular graph counts with degrees mu, by genus.

    sigma has one cycle per labeled vertex on that vertex's half-edges,
    started at the arrowed one; a graph is an edge pairing alpha with
    <sigma, alpha> transitive, and its faces are the cycles of sigma alpha.
    """
    sigma, start = {}, 0
    for m in mu:
        sigma.update({start + i: start + (i + 1) % m for i in range(m)})
        start += m
    half_edges = list(range(start))
    counts = {}
    for pairing in _pairings(half_edges):
        alpha = {}
        for a, b in pairing:
            alpha[a], alpha[b] = b, a
        seen, stack = {0}, [0]
        while stack:
            h = stack.pop()
            for k in (sigma[h], alpha[h]):
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        if len(seen) < start:
            continue
        faces = _cycle_count(lambda h: sigma[alpha[h]], start)
        genus, odd = divmod(2 - len(mu) + start // 2 - faces, 2)
        assert not odd
        counts[genus] = counts.get(genus, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Hurwitz numbers by monodromy factorizations
# ---------------------------------------------------------------------------

def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p)
    seen = [False] * n
    lens = []
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        h = s
        while not seen[h]:
            seen[h] = True
            h = p[h]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def _transitive(gens: Sequence[tuple[int, ...]], d: int) -> bool:
    parent = list(range(d))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for gperm in gens:
        for i in range(d):
            ra, rb = find(i), find(gperm[i])
            if ra != rb:
                parent[ra] = rb
    return len({find(i) for i in range(d)}) == 1


def hurwitz_by_factorizations(g: int, mu: Sequence[int]) -> Fraction:
    """Simple Hurwitz number from transposition factorizations (small d only).

    Counts pairs (sigma, tau_1..tau_r) with sigma of cycle type mu,
    tau_r...tau_1 sigma = id and transitive monodromy; divides by d! and
    converts from the pole-unlabeled normalization.
    """
    mu = tuple(sorted(mu, reverse=True))
    d = sum(mu)
    n = len(mu)
    r = 2 * g - 2 + n + d
    if r < 0:
        return Q(0)
    transpositions = []
    for i, j in combinations(range(d), 2):
        p = list(range(d))
        p[i], p[j] = j, i
        transpositions.append(tuple(p))
    total = 0
    for sigma in permutations(range(d)):
        if _cycle_type(sigma) != mu:
            continue
        for taus in product(transpositions, repeat=r):
            acc = sigma
            for tau in taus:
                acc = _compose(tau, acc)
            if acc != tuple(range(d)):
                continue
            if _transitive((sigma,) + taus, d):
                total += 1
    h_unlabeled = Q(total, factorial(d))
    aut = 1
    for v in set(mu):
        aut *= factorial(mu.count(v))
    return h_unlabeled * Q(aut, factorial(r))


def labeled_hurwitz_by_factorizations(g: int, mu: Sequence[int]) -> Fraction:
    """The pole-unlabeled, branch-point-labeled normalization directly."""
    mu = tuple(sorted(mu, reverse=True))
    r = 2 * g - 2 + len(mu) + sum(mu)
    aut = 1
    for v in set(mu):
        aut *= factorial(mu.count(v))
    return hurwitz_by_factorizations(g, mu) * Q(factorial(r), aut)


# ---------------------------------------------------------------------------
# plain Fraction references
# ---------------------------------------------------------------------------

def eval_all(f, values: Sequence[Fraction]) -> Fraction:
    """A ``SparseLaurent`` at a rational point, summed term by term."""
    total = Q(0)
    for key, c in f.terms.items():
        for e, v in zip(key, values):
            c *= Q(v) ** e
        total += c
    return total


def dessin_number(g: int, n: int, mu: Sequence[int]) -> Fraction:
    """Automorphism-weighted graph count: catalan_count / prod(mu)."""
    from eocurves.catalan import catalan_count
    return Q(catalan_count(g, n, mu), prod(mu))


# ---------------------------------------------------------------------------
# Hurwitz x-series: a z-form on the tree series against the count sums
# ---------------------------------------------------------------------------

def z_form_x_series(f, order: int) -> list[Fraction]:
    """Coefficients of f(z(x)) through x^order, z(x) the tree series."""
    from eocurves.hurwitz import tree_series
    from eocurves.series import TruncatedSeries
    z = tree_series(order)

    def compose(coeffs: list[str]) -> TruncatedSeries:
        acc = TruncatedSeries([Q(0)] * (order + 1), "x")
        for c in reversed(coeffs):
            acc = acc * z + TruncatedSeries([Q(c)] + [Q(0)] * order, "x")
        return acc

    data = f.to_json()
    return (compose(data["num"]) * compose(data["den"]).reciprocal()).coeffs[:order + 1]


def hurwitz_count_x_series(m: int, order: int) -> list[Fraction]:
    """x d/dx of sum_{2g-2+n=m-1} sum_mu H_{g,n}(mu)/n! x^|mu| through x^order."""
    from eocurves.hurwitz import hurwitz_number, stable_levels
    out = [Q(0)] * (order + 1)
    for g, n in stable_levels(m - 1):
        for mu in product(range(1, order + 1), repeat=n):
            d = sum(mu)
            if d <= order:
                out[d] += d * hurwitz_number(g, n, list(mu)) / factorial(n)
    return out

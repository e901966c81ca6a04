"""The truncated Laplace sums against a plain enumeration of ordered profiles.

``shared.laplace_sum_float`` reuses one row per sorted prefix, asks for each
weight once and skips odd |mu| for Catalan.  The reference here does none of
that: it walks ``itertools.product`` in lexicographic order and forms every
term with the same float operations, so the two must agree bit for bit, and
a cold run must leave the count memos exactly as the reference leaves them.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from eocurves import report, shared, wkb
from eocurves.report import RunConfig

SIGN = {"catalan": -1, "hurwitz": 1}
MEMO = {"catalan": "_count_memo", "hurwitz": "_h_memo"}
COUNT = {"catalan": "_count", "hurwitz": "_hurwitz"}


def reference_sum(weight, sign, g, n, xs, cap):
    total = 0.0
    for mu in product(range(1, cap - n + 2), repeat=n):
        if sum(mu) > cap:
            continue
        scale = 1.0
        for x, m in zip(xs[:-1], mu[:-1]):
            scale = scale * x ** (sign * m)
        w = weight(g, shared.sorted_key(mu))
        if w:
            total += w * scale * xs[-1] ** (sign * mu[-1])
    return total


def probe_points(model, n):
    if model == "catalan":
        return [10.0 + 0.5 * i for i in range(n)]
    return [math.exp(-3.0 - 0.1 * i) for i in range(n)]


CASES = [(g, n, cap) for g, n, caps in [
    (0, 1, (1, 7, 60)), (1, 1, (2, 9, 40)),
    (0, 2, (1, 8, 40)), (1, 2, (3, 12, 25)),
    (0, 3, (2, 9, 30)), (1, 3, (4, 13, 18)),
    (0, 4, (3, 10, 20)),
    (0, 5, (4, 11, 16)),
] for cap in caps]


@pytest.mark.parametrize("model", ["catalan", "hurwitz"])
@pytest.mark.parametrize("g,n,cap", CASES)
def test_sum_matches_plain_enumeration(model, g, n, cap):
    module = wkb.MODELS[model]
    xs = probe_points(model, n)
    expected = reference_sum(module._laplace_weight, SIGN[model], g, n, xs, cap)
    assert shared.laplace_probe_sum(module, g, n, xs, cap).hex() == expected.hex()


@pytest.mark.parametrize("model", ["catalan", "hurwitz"])
@pytest.mark.parametrize("g,n,cap", [(1, 1, 60), (0, 3, 40), (1, 3, 18), (0, 4, 24)])
def test_each_weight_is_asked_for_once(monkeypatch, model, g, n, cap):
    module = wkb.MODELS[model]
    real = module._laplace_weight
    asked = []
    monkeypatch.setattr(module, "_laplace_weight",
                        lambda g, key: asked.append(key) or real(g, key))
    shared.laplace_probe_sum(module, g, n, probe_points(model, n), cap)
    # every sorted key of the box, largest part first, once; Catalan even only
    needed = {shared.sorted_key(mu) for mu in product(range(1, cap + 1), repeat=n)
              if sum(mu) <= cap and (model == "hurwitz" or sum(mu) % 2 == 0)}
    assert len(asked) == len(set(asked))
    assert set(asked) == needed


def curve_point(model, t):
    """(x, z) of a float t on the model's curve, not through the map under test."""
    if model == "catalan":  # z = (t+1)/(t-1); x = 2(t^2+1)/(t^2-1), exact at the float t
        return float(wkb.MODELS["catalan"].x_of_t().eval(Fraction(t))), (t + 1) / (t - 1)
    z = (t - 1) / t  # x = z e^{-z}
    return z * math.exp(-z), z


@pytest.mark.parametrize("model", ["catalan", "hurwitz"])
def test_probe_points_lie_on_the_curve(monkeypatch, model):
    module = wkb.MODELS[model]
    evaluated = []

    class Recorder:
        def eval_float(self, ts):
            evaluated.append(ts)
            return 0.0

    monkeypatch.setattr(module, "free_energy", lambda g, n: Recorder())
    for g, n, xs, cap in module.LAPLACE_PROBES:
        shared.free_energy_float(module, g, n, xs)
        ts = evaluated.pop()
        assert len(ts) == len(xs)
        for x, t in zip(xs, ts):
            x_of_t, z = curve_point(model, t)
            assert x_of_t == pytest.approx(x, rel=1e-12, abs=0)
            # the sheet where z -> 0, on which the Laplace sums converge; the
            # Catalan x is even in t, so t and -t (z and 1/z) share an x
            assert abs(z) < 1


@pytest.mark.parametrize("model", ["catalan", "hurwitz"])
def test_cold_probe_leaves_the_reference_memo(model):
    module = wkb.MODELS[model]
    memo = getattr(module, MEMO[model])
    module.clear_caches()
    assert report.laplace_check(model)(RunConfig())[0]
    probed = shared.profile_items(memo)
    module.clear_caches()
    for g, n, xs, cap in module.LAPLACE_PROBES:
        shared.free_energy_float(module, g, n, xs)
        reference_sum(module._laplace_weight, SIGN[model], g, n, xs, cap)
    assert len(memo) == len(probed)
    assert shared.profile_items(memo) == probed


@pytest.mark.parametrize("model", ["catalan", "hurwitz"])
def test_warm_probe_calls_no_count_function(monkeypatch, model):
    assert report.laplace_check(model)(RunConfig())[0]
    calls = []
    for counted, name in COUNT.items():
        real = getattr(wkb.MODELS[counted], name)
        monkeypatch.setattr(wkb.MODELS[counted], name,
                            lambda g, mu, real=real: calls.append((g, mu)) or real(g, mu))
    # every weight is read from the memo the first run filled
    assert report.laplace_check(model)(RunConfig())[0]
    assert calls == []

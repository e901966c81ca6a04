"""Verification suites and machine-readable reports.

The suite registry is static: appended to, never reordered, so that
``--suite all`` is stable across versions.  Every check returns a pass
flag plus a short residual summary; rationals in reports are strings so
no binary floating point ever contaminates the output.
"""

from __future__ import annotations

import csv
import io
import json
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import __version__
from . import catalan as cat
from . import hurwitz as hur
from . import qhbar
from . import schur
from . import shared
from . import wkb
from . import oracles
from .rationals import qstr
from .ratfunc import RatFunc

Q = Fraction

CheckFn = Callable[["RunConfig"], tuple[bool, str]]


class RunConfig(NamedTuple):
    command: str = "verify"
    subcommand: str = ""
    suite: str = "all"
    params: dict = {}  # shared by every default-built config; never mutated
    output_format: str = "pretty"
    cache_path: str = ""

    def to_json(self) -> dict:
        return self._asdict()


class CheckRecord(NamedTuple):
    check_id: str
    statement: str
    status: str
    residual: str
    wall_time: float


class Report(NamedTuple):
    suite: str
    checks: list[CheckRecord]
    config: RunConfig

    @property
    def overall(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "version": __version__,
            "config": self.config.to_json(),
            "checks": [c._asdict() for c in self.checks],
            "overall": self.overall,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_json_dict(), indent=2)
        if fmt == "csv":
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["id", "status", "residual", "wall_time"])
            for c in self.checks:
                writer.writerow([c.check_id, c.status, c.residual, f"{c.wall_time:.3f}"])
            writer.writerow(["overall", self.overall, "", ""])
            return out.getvalue().rstrip("\n")
        width = max((len(c.check_id) for c in self.checks), default=10)
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            lines.append(f"  {c.check_id.ljust(width)}  {c.status.upper():4}  "
                         f"{c.residual}")
        lines.append(f"overall: {self.overall.upper()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _zero_ratfuncs(fns: Sequence[RatFunc]) -> tuple[bool, str]:
    bad = [i for i, f in enumerate(fns) if not f.is_zero()]
    if bad:
        return False, f"nonzero at orders {bad}"
    return True, f"{len(fns)} residuals identically zero"


def check_catalan_base_sequence(cfg: RunConfig) -> tuple[bool, str]:
    expect = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
    got = [cat.catalan_count(0, 1, [2 * m]) for m in range(13)]
    return got == expect, f"first 13 entries {'match' if got == expect else got}"


def check_catalan_curve_inversion(cfg: RunConfig) -> tuple[bool, str]:
    bad = cat.curve_inversion_check(8)
    if bad is None:
        return True, "series inverse exact through order 8"
    return False, f"series inverse first fails at x^{bad} (order 8)"


def free_energies_check(model: str) -> CheckFn:
    """Symmetry, vanishing at the model's base point and the degree bound."""
    module = wkb.MODELS[model]
    base = qstr(module.BASE_POINT)

    def check(cfg: RunConfig) -> tuple[bool, str]:
        for g, n in [(1, 1), (0, 3), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1)]:
            fe = module.free_energy(g, n)
            if not fe.is_symmetric():
                return False, f"({g},{n}) asymmetric"
            if not fe.eval_partial(0, module.BASE_POINT).is_zero():
                return False, f"({g},{n}) does not vanish at t={base}"
            if fe.total_degree() > 6 * g - 6 + 3 * n:
                return False, f"({g},{n}) degree too big"
        return True, f"symmetry, vanishing at t={base}, degree bound for 7 cases"

    return check


# the probes' true relative errors are about 1e-13
LAPLACE_TOLERANCE = 1e-8


def laplace_check(model: str) -> CheckFn:
    """Exact free energies against truncated Laplace sums at the model's probes."""
    module = wkb.MODELS[model]

    def check(cfg: RunConfig) -> tuple[bool, str]:
        worst, where = 0.0, ""
        for g, n, xs, cap in module.LAPLACE_PROBES:
            exact = shared.free_energy_float(module, g, n, xs)
            direct = shared.laplace_probe_sum(module, g, n, xs, cap)
            error = abs(exact - direct) / abs(direct)
            if error > worst:
                worst, where = error, f" at ({g},{n})"
        ok = worst <= LAPLACE_TOLERANCE
        return ok, f"max relative error {worst:.2e}" + ("" if ok else where)

    return check


def check_catalan_s_cross_paths(cfg: RunConfig) -> tuple[bool, str]:
    for m in (2, 3, 4):
        if cat.s_coefficient_assembled(m) != cat.s_coefficient_recursive(m):
            return False, f"paths differ at m={m}"
    return True, "assembled equals recursive for m=2..4"


def _catalan_table_z(m: int) -> RatFunc:
    # RatFunc(terms, k, k, "z") is over (z - 1)^k (z + 1)^k = (z^2 - 1)^k
    if m == 2:  # z^4 (9 + z^2) / (12 (1 - z^2)^3)
        return RatFunc({4: 9, 6: 1}, 3, 3, "z") * Q(-1, 12)
    if m == 3:
        return RatFunc({6: 5, 8: 5}, 6, 6, "z") * Q(1, 2)
    num = [-4725, -12879, -4524, 36, -9, 1]
    return RatFunc(dict(zip(range(8, 19, 2), num)), 9, 9, "z") * Q(1, 360)


def check_catalan_s_table(cfg: RunConfig) -> tuple[bool, str]:
    for m in (2, 3, 4):
        if cat.to_z(cat.s_coefficient_assembled(m)) != _catalan_table_z(m):
            return False, f"closed form differs at m={m}"
    return True, "closed z-forms match for m=2..4"


def check_catalan_schrodinger(cfg: RunConfig) -> tuple[bool, str]:
    return _zero_ratfuncs(cat.schrodinger_residuals(3))


def check_catalan_s_polynomiality(cfg: RunConfig) -> tuple[bool, str]:
    for m in (2, 3, 4):
        degree = len(cat.s_polynomial(cat.s_coefficient_assembled(m))) - 1
        if degree > 3 * m - 3:
            return False, f"degree {degree} > {3 * m - 3} at m={m}"
    return True, "polynomial in s with degree <= 3m-3"


def check_catalan_euler(cfg: RunConfig) -> tuple[bool, str]:
    for g, n in [(1, 1), (0, 3), (1, 2), (2, 1)]:
        got = cat.principal_ratfunc(cat.free_energy(g, n)).eval(Q(1))
        want = (-1) ** n * oracles.moduli_euler_characteristic(g, n)
        if got != want:
            return False, f"({g},{n}): {got} != {want}"
    return True, "matches orbifold Euler characteristics for 4 cases"


def check_hurwitz_values(cfg: RunConfig) -> tuple[bool, str]:
    cases = [
        hur.hurwitz_number(0, 1, [3]) == Q(1, 2),
        hur.hurwitz_number(0, 2, [1, 1]) == Q(1, 2),
        hur.hurwitz_number(1, 1, [2]) == Q(1, 12),
        hur.hurwitz_number(1, 1, [1]) == 0,
        hur.labeled_hurwitz(0, [1, 1, 1]) == 4,
    ]
    return all(cases), f"{sum(cases)}/5 reference values"


def check_hurwitz_nonnegative(cfg: RunConfig) -> tuple[bool, str]:
    import random
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 3)
        mu = [rng.randint(1, 5) for _ in range(n)]
        g = rng.randint(0, 2)
        if hur.hurwitz_number(g, n, mu) < 0:
            return False, f"negative at ({g},{mu})"
    return True, "30 random values non-negative"


def check_hurwitz_recursion(cfg: RunConfig) -> tuple[bool, str]:
    for level in (1, 2, 3):
        for g, n in hur.stable_levels(level):
            res = hur.fh_recursion_residual(g, n)
            if not res.is_zero():
                key, c = min(res.terms.items())
                return False, (f"nonzero residual at ({g},{n}), level {level}: "
                               f"{len(res.terms)} terms, first term {qstr(c)} t^{key}")
    return True, "identically zero for all 2g-2+n <= 3"


def check_hurwitz_s_cross_paths(cfg: RunConfig) -> tuple[bool, str]:
    for m in (2, 3, 4):
        hur.s_coefficient(m)  # raises PathMismatch on any failure
    return True, "both constructions agree, degree 3m-3, vanish at t=1"


def check_hurwitz_heat(cfg: RunConfig) -> tuple[bool, str]:
    ok, msg = _zero_ratfuncs(hur.heat_residuals(3))
    if not ok:
        return ok, msg
    if not hur.s0_quadratic_identity_residual().is_zero():
        return False, "leading-order quadratic identity fails"
    return True, msg + "; leading-order identity holds"


def check_hurwitz_lambert(cfg: RunConfig) -> tuple[bool, str]:
    fails = [f"{name} identity first fails at x^{bad}"
             for name, bad in zip(("curve", "frame"), hur.lambert_inversion_check(12))
             if bad is not None]
    if not fails:
        return True, "series identities exact through order 12"
    return False, "; ".join(fails) + " (order 12)"


def _listed_failures(failures: list[str], passed: str) -> tuple[bool, str]:
    """Pass when a helper found no failure; else the count and the first."""
    if not failures:
        return True, passed
    plural = "" if len(failures) == 1 else "s"
    return False, f"{len(failures)} failure{plural}, first: {failures[0]}"


def check_zhou_series(cfg: RunConfig) -> tuple[bool, str]:
    return _listed_failures(qhbar.zhou_series_checks(20),
                            "termwise recursion/difference/heat checks to m=20")


def check_pq_commutator(cfg: RunConfig) -> tuple[bool, str]:
    return _listed_failures(qhbar.pq_commutator_check(10, 3),
                            "commutator bracket annihilates the basis grid")


def check_wkb_corrections(cfg: RunConfig) -> tuple[bool, str]:
    for model in wkb.MODELS:
        corr = wkb.recover_corrections(model, 4)
        for k, c in enumerate(corr, 1):
            if not c.is_zero():
                return False, f"nonzero A_{k} for {model}"
    return True, "A_1..A_4 vanish for both models"


def check_wkb_triple_path(cfg: RunConfig) -> tuple[bool, str]:
    for m in (2, 3, 4):
        for model, module in wkb.MODELS.items():
            if wkb.s_prime_from_hierarchy(model, m) != module.to_z(module.s_prime(m)):
                return False, f"{model} mismatch at m={m}"
    return True, "hierarchy equals direct derivatives, m=2..4, both models"


def check_schur_eigenvalue(cfg: RunConfig) -> tuple[bool, str]:
    for d in range(7):
        for mu in schur.partitions_of(d):
            smu = schur.schur_in_p(mu)
            delta = schur.cutjoin_apply(smu) - smu * (
                schur.shifted_power_sum(2, mu) / 2)
            if not delta.is_zero():
                return False, f"fails at {mu}"
    return True, "exact for all |mu| <= 6"


def check_schur_tau(cfg: RunConfig) -> tuple[bool, str]:
    if not schur.tau_expansion_residual(6, 6).is_zero():
        return False, "graded residual nonzero"
    if not schur.heat_consistency_residual(6, 6).is_zero():
        return False, "cut-and-join flow residual nonzero"
    return True, "character expansion equals exp(H) to weight 6, order 6"


def check_schur_cauchy(cfg: RunConfig) -> tuple[bool, str]:
    if not schur.cauchy_residual(5).is_zero():
        return False, "pairing identity fails"
    if not schur.cauchy_restriction_residual(5).is_zero():
        return False, "restriction identity fails"
    return True, "pairing and restriction identities to weight 5"


def check_schur_collapse(cfg: RunConfig) -> tuple[bool, str]:
    return _listed_failures(schur.principal_collapse_check(8),
                            "one-row collapse matches explicit series to m=8")


def check_schur_orthogonality(cfg: RunConfig) -> tuple[bool, str]:
    for d in range(1, 7):
        ps = schur.partitions_of(d)
        for a in ps:
            for b in ps:
                tot = sum(Q(schur.character(a, l) * schur.character(b, l),
                            schur.z_order(l)) for l in ps)
                if tot != (1 if a == b else 0):
                    return False, f"fails at {a},{b}"
    import math
    for d in range(1, 7):
        if sum(schur.dimension(mu) ** 2 for mu in schur.partitions_of(d)) \
                != math.factorial(d):
            return False, f"dimension square sum fails at {d}"
    return True, "character orthogonality and Burnside identity to size 6"


SUITES: dict[str, list[tuple[str, str, CheckFn]]] = {
    "catalan": [
        ("catalan-base-sequence", "one-vertex planar counts are the Catalan numbers",
         check_catalan_base_sequence),
        ("catalan-curve-inversion", "z(x) series inverts x = z + 1/z",
         check_catalan_curve_inversion),
        ("catalan-free-energies", "free energies symmetric, vanish at t=-1",
         free_energies_check("catalan")),
        ("catalan-laplace", "exact free energies match truncated Laplace sums",
         laplace_check("catalan")),
        ("catalan-s-cross-paths", "assembled and recursive S_m agree",
         check_catalan_s_cross_paths),
        ("catalan-s-table", "S_2..S_4 match their closed z-forms",
         check_catalan_s_table),
        ("catalan-schrodinger", "quantum-curve residuals vanish to order 4",
         check_catalan_schrodinger),
        ("catalan-s-polynomiality", "principal specialization polynomial in s",
         check_catalan_s_polynomiality),
        ("catalan-euler", "value at s=1 gives moduli Euler characteristics",
         check_catalan_euler),
    ],
    "hurwitz": [
        ("hurwitz-values", "reference values of small Hurwitz numbers",
         check_hurwitz_values),
        ("hurwitz-nonnegative", "random Hurwitz numbers are non-negative",
         check_hurwitz_nonnegative),
        ("hurwitz-free-energies", "free energies symmetric, vanish at t=1, bounded degree",
         free_energies_check("hurwitz")),
        ("hurwitz-recursion", "differential recursion residuals vanish",
         check_hurwitz_recursion),
        ("hurwitz-laplace", "exact free energies match truncated Laplace sums",
         laplace_check("hurwitz")),
        ("hurwitz-s-cross-paths", "assembled and recursive S_m agree",
         check_hurwitz_s_cross_paths),
        ("hurwitz-heat", "heat-hierarchy residuals vanish to m=3",
         check_hurwitz_heat),
        ("hurwitz-lambert", "tree series inverts the exponential curve",
         check_hurwitz_lambert),
        ("hurwitz-zhou", "explicit series satisfies its termwise equations",
         check_zhou_series),
        ("hurwitz-pq-commutator", "[P,Q] = P on the basis grid",
         check_pq_commutator),
    ],
    "wkb": [
        ("wkb-corrections", "quantization corrections vanish to order 4",
         check_wkb_corrections),
        ("wkb-triple-path", "hierarchy solution equals direct S_m derivatives",
         check_wkb_triple_path),
    ],
    "schur": [
        ("schur-eigenvalue", "cut-and-join eigenvalue identity",
         check_schur_eigenvalue),
        ("schur-tau", "character expansion of exp(H) per graded piece",
         check_schur_tau),
        ("schur-cauchy", "Cauchy pairing identity and its restriction",
         check_schur_cauchy),
        ("schur-collapse", "principal specialization collapses to one-row terms",
         check_schur_collapse),
        ("schur-orthogonality", "character orthogonality and Burnside identity",
         check_schur_orthogonality),
    ],
}


def suite_checks(name: str) -> list[tuple[str, str, CheckFn]]:
    if name == "all":
        return [check for checks in SUITES.values() for check in checks]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name]


def run_checks(title: str, checks: Sequence[tuple[str, str, CheckFn]],
               cfg: RunConfig) -> Report:
    """Run the given registry entries in order; the report is titled ``title``."""
    records = []
    for check_id, statement, fn in checks:
        start = time.monotonic()
        try:
            ok, residual = fn(cfg)
        except Exception as exc:  # a crash is a failure, not a crash of the suite
            ok, residual = False, f"exception: {type(exc).__name__}: {exc}"
        records.append(CheckRecord(check_id, statement, "pass" if ok else "fail",
                                   residual, time.monotonic() - start))
    return Report(suite=title, checks=records, config=cfg)


def run_suite(name: str, cfg: RunConfig) -> Report:
    return run_checks(name, suite_checks(name), cfg)

"""Spans around calls into eocurves, recorded from outside the package.

A traced child process calls ``install(tracer)`` after importing eocurves.
That replaces the public functions and methods named in ``TARGETS`` (and
the check callables in ``report.SUITES``) with wrappers that record one
span per call: name, start, end and parent span.  Spans stay in memory
and are written out once, at exit, by ``Tracer.dump``.  The parent process
reads them back and turns them into per-layer metrics with
``run.layer_metrics``; self time is computed there, from the spans alone.

Nothing under ``src/`` is edited: the wrappers exist only in the traced
child, so untraced runs execute the program as shipped (apart from the
per-check timers that ``child.time_checks`` puts around verify checks).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (metric prefix, module, qualified names).  A name "*" stands for every
# public module-level function of the module.  Targets a later version of
# the program no longer has are skipped and listed in ``Tracer.missing``.
TARGETS = [
    ("laurent.mul", "laurent", ["SparseLaurent.__mul__"]),
    ("laurent.add", "laurent", ["SparseLaurent.__add__", "SparseLaurent.__sub__"]),
    ("laurent.binfrac_add", "laurent", ["BinomialFraction.__add__"]),
    ("laurent.finalize", "laurent", ["BinomialFraction.finalize"]),
    ("laurent.integrate", "laurent", ["SparseLaurent.integrate"]),
    ("ratfunc", "ratfunc", [
        "UPoly.__add__", "UPoly.__sub__", "UPoly.__mul__", "UPoly.divmod",
        "UPoly.gcd", "UPoly.pow", "RatFunc.__add__", "RatFunc.__sub__",
        "RatFunc.__mul__", "RatFunc.__truediv__", "RatFunc.pow", "RatFunc.diff",
        "substitute_mobius", "integrate_no_log", "partial_fractions", "even_part"]),
    ("linsolve", "linsolve", ["solve_overdetermined", "solve_exact"]),
    ("catalan.count", "catalan", ["catalan_count"]),
    ("hurwitz.count", "hurwitz", ["hurwitz_number"]),
    ("catalan.fe", "catalan", ["free_energy"]),
    ("hurwitz.fe", "hurwitz", ["free_energy"]),
    ("hurwitz.elsv", "hurwitz", ["elsv_coefficients"]),
    ("catalan.s", "catalan", ["s_coefficient_assembled", "s_coefficient_recursive"]),
    ("hurwitz.s", "hurwitz", ["s_coefficient_assembled", "s_coefficient_recursive",
                              "s_coefficient"]),
    ("hurwitz.residual", "hurwitz", ["fh_recursion_residual", "heat_residuals"]),
    ("wkb.corrections", "wkb", ["recover_corrections"]),
    ("wkb.hierarchy", "wkb", ["s_prime_from_hierarchy"]),
    ("schur", "schur", ["*"]),
    ("qhbar", "qhbar", ["*"]),
    ("cache.import", "cache", ["import_caches"]),
    ("cache.export", "cache", ["export_caches"]),
    ("cli.render", "report", ["Report.render"]),
]

# The verify checks whose time the traced run reports one by one.
CHECK_IDS = ["hurwitz-recursion", "hurwitz-laplace", "catalan-laplace",
             "wkb-triple-path", "wkb-corrections"]

# The memo tables whose growth across a public count call is its cache use.
COUNT_MEMOS = {"catalan.count": ("catalan", "_count_memo"),
               "hurwitz.count": ("hurwitz", "_h_memo")}

ROOT_SPAN = "bench.work"


class Tracer:
    """In-memory span recorder for one traced child (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # span id -> (name, start, end, parent id); -1 is "no parent"
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.check_memo_entries: dict[str, int] = {}
        self.missing: list[str] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def dump(self, path: str) -> None:
        """Write the spans, one per line: id, parent, name, start, end."""
        with open(path, "w") as out:
            out.write(f"# run {self.run_id}\n")
            for sid, span in enumerate(self.spans):
                if span is None:  # still open: the process is failing
                    continue
                name, start, end, parent = span
                out.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def read_spans(path: str) -> list[tuple[int, int, str, float, float]]:
    spans = []
    with open(path) as src:
        for line in src:
            if line.startswith("#"):
                continue
            sid, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, float(start), float(end)))
    return spans


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals``, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total duration, self time).

    A span's self time is its duration minus the part of it that its child
    spans cover.  ``spans`` holds (id, parent id, name, start, end).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[int, float, float]] = {}
    for sid, _parent, name, start, end in spans:
        dur = end - start
        own = dur - covered(children.get(sid, []), start, end)
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + dur, self_s + own)
    return out


# ---------------------------------------------------------------------------
# installing the wrappers (traced child only)
# ---------------------------------------------------------------------------

def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "eocurves" or name.startswith("eocurves."))]


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every module-level name in the package that holds ``original``."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _memo_tables() -> list[dict]:
    tables = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if attr.endswith("_memo") and isinstance(value, dict):
                tables.append(value)
    return tables


def _coeff_bits(f) -> int:
    bits = 0
    for c in f.terms.values():
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _make_wrapper(tracer: Tracer, prefix: str, module, fn):
    observe = None

    if prefix == "laurent.mul":
        laurent_cls = module.SparseLaurent

        def observe(args, result):
            a, b = args
            if isinstance(b, laurent_cls):
                tracer.add("laurent.mul_term_pairs", len(a.terms) * len(b.terms))
    elif prefix in ("catalan.fe", "hurwitz.fe"):
        seen: set = set()

        def observe(args, result):
            key = tuple(args)
            if key in seen or not hasattr(result, "terms"):
                return
            seen.add(key)
            tracer.peak("laurent.max_terms", len(result.terms))
            tracer.peak("laurent.max_coeff_bits", _coeff_bits(result))
            tracer.add(prefix + "_terms", len(result.terms))
    elif prefix == "linsolve":
        def observe(args, result):
            tracer.peak("linsolve.max_rows", len(args[0]))
    elif prefix == "cache.import":
        def observe(args, result):
            tracer.add("cache.entries_loaded",
                       result.get("catalan", 0) + result.get("hurwitz", 0))
            tracer.add("cache.entries_rejected", result.get("rejected", 0))
    elif prefix == "cache.export":
        def observe(args, result):
            tracer.add("cache.file_bytes", os.path.getsize(args[0]))

    memo = None
    if prefix in COUNT_MEMOS:
        mod_name, attr = COUNT_MEMOS[prefix]
        memo = getattr(sys.modules.get("eocurves." + mod_name), attr, None)
    depth = [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = len(memo) if memo is not None else 0
        depth[0] += 1
        try:
            result = tracer.span(prefix, fn, *args, **kwargs)
        finally:
            depth[0] -= 1
        if memo is not None and depth[0] == 0:
            added = len(memo) - before
            tracer.add(prefix.split(".")[0] + ".memo_added", added)
            tracer.add(prefix + "_hits", 1 if added == 0 else 0)
            tracer.add(prefix + "_outer_calls", 1)
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def _public_functions(module) -> list[str]:
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and callable(value)
                  and getattr(value, "__module__", None) == module.__name__
                  and not isinstance(value, type))


def install(tracer: Tracer) -> None:
    """Wrap every target that exists in the imported package."""
    for prefix, mod_name, names in TARGETS:
        try:
            module = importlib.import_module("eocurves." + mod_name)
        except ImportError:
            tracer.missing.append(f"eocurves.{mod_name}")
            continue
        if names == ["*"]:
            names = _public_functions(module)
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                tracer.missing.append(f"{mod_name}.{qualname}")
                continue
            wrapper = _make_wrapper(tracer, prefix, module, original)
            if owner_name:
                for name, value in list(vars(owner).items()):
                    if value is original:  # aliases such as __rmul__ = __mul__
                        setattr(owner, name, wrapper)
            else:
                _replace_everywhere(original, wrapper)
    _wrap_checks(tracer)


def _wrap_checks(tracer: Tracer) -> None:
    report = sys.modules.get("eocurves.report")
    suites = getattr(report, "SUITES", None)
    if not isinstance(suites, dict):
        tracer.missing.append("report.SUITES")
        return
    tables = _memo_tables()
    for checks in suites.values():
        for i, (check_id, statement, fn) in enumerate(checks):
            def run_check(cfg, _fn=fn, _id=check_id):
                entries = sum(len(t) for t in tables)
                tracer.check_memo_entries[_id] = entries
                if entries == 0:
                    tracer.add("report.cold_checks", 1)
                return tracer.span("report.check." + _id, _fn, cfg)
            checks[i] = (check_id, statement, run_check)

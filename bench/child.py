"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per sample.  It imports eocurves from
the checkout's ``src/``, finishes its set-up, marks the moment it is ready,
does the workload's measured work, marks the end, and writes the marks,
its resource usage and the outputs to check into a JSON file.  Outputs are
digested after the end mark, so checking costs nothing inside the span.

The measured span is cut into segments, the workload's natural units:
one count query, one ladder case, one verify check, plus ``rest`` for
whatever lies between them.  Each segment's wall and CPU time is written
out, so that the parent can take each segment's fastest time over the
samples of a run (see ``run.best_of``).

    python3 bench/child.py --workload count-table --seed 1 --out r.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-cold", "verify-warm", "verify-catalan-warm", "symbolic-ladder",
             "count-table")

# The suite each verify workload runs.  The warm ones load a cache file
# that a cold run of the whole suite wrote.
VERIFY_SUITES = {"verify-cold": "all", "verify-warm": "all", "verify-catalan-warm": "catalan"}

# count-table box: every sorted profile with g <= 2, n <= 3 and |mu| up to
# these sizes (even sizes only for Catalan, whose odd counts vanish).
CATALAN_MAX_SIZE = 20
HURWITZ_MAX_SIZE = 14
MAX_GENUS = 2
MAX_POINTS = 3


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def peak_rss_kb() -> int:
    """This process's peak resident set size, in KiB.

    ``ru_maxrss`` would do, but on Linux it also counts the memory the
    parent had when it forked this process, so a parent that grows would
    inflate it.  ``VmHWM`` counts this program's own memory only.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _partitions(total: int, parts: int, largest: int):
    """Non-increasing tuples of ``parts`` positive entries summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def count_queries(seed: int) -> list[tuple[str, int, tuple[int, ...]]]:
    """The count-table box, by increasing |mu|, each size shuffled by ``seed``.

    Going up in size, as a table is filled, each query computes little more
    than its own entry; in a fully shuffled order the first large query
    would compute most of the table.  Small, even segments are what lets
    ``run.best_of`` see every query at the machine's faster speed.
    """
    rng = random.Random(seed)
    queries = []
    for size in range(1, max(CATALAN_MAX_SIZE, HURWITZ_MAX_SIZE) + 1):
        level = []
        for g in range(MAX_GENUS + 1):
            for n in range(1, MAX_POINTS + 1):
                if size % 2 == 0 and size <= CATALAN_MAX_SIZE:
                    level += [("catalan", g, mu) for mu in _partitions(size, n, size)]
                if size <= HURWITZ_MAX_SIZE:
                    level += [("hurwitz", g, mu) for mu in _partitions(size, n, size)]
        rng.shuffle(level)
        queries += level
    return queries


def query_key(model: str, g: int, mu: tuple[int, ...]) -> str:
    return f"{model}:{g}:{','.join(map(str, mu))}"


def ladder_cases():
    """(label, thunk) pairs of the symbolic-ladder workload, in run order."""
    from eocurves import catalan as cat, hurwitz as hur, wkb

    cases = []
    for g, n in [gn for level in range(1, 5) for gn in cat.stable_levels(level)] + [(1, 5)]:
        cases.append((f"catalan.F({g},{n})", lambda g=g, n=n: cat.free_energy(g, n)))
    for level in range(1, 4):
        for g, n in hur.stable_levels(level):
            cases.append((f"hurwitz.F({g},{n})", lambda g=g, n=n: hur.free_energy(g, n)))
    for m in range(2, 6):
        cases.append((f"catalan.S{m}.assembled", lambda m=m: cat.s_coefficient_assembled(m)))
        cases.append((f"catalan.S{m}.recursive", lambda m=m: cat.s_coefficient_recursive(m)))
    for m in range(2, 5):
        cases.append((f"hurwitz.S{m}.assembled", lambda m=m: hur.s_coefficient_assembled(m)))
        cases.append((f"hurwitz.S{m}.recursive", lambda m=m: hur.s_coefficient_recursive(m)))
    cases.append(("catalan.schrodinger_residuals(4)", lambda: cat.schrodinger_residuals(4)))
    cases.append(("hurwitz.heat_residuals(3)", lambda: hur.heat_residuals(3)))
    for model in ("catalan", "hurwitz"):
        cases.append((f"{model}.A(1..4)", lambda model=model: wkb.recover_corrections(model, 4)))
    for m in range(2, 5):
        for model in ("catalan", "hurwitz"):
            cases.append((f"{model}.S{m}'.hierarchy",
                          lambda model=model, m=m: wkb.s_prime_from_hierarchy(model, m)))
    # (0,5) alone takes about 8 s; both verify workloads run it in their
    # hurwitz-recursion check, so the ladder leaves it out to stay short.
    for level in range(1, 4):
        for g, n in hur.stable_levels(level):
            if (g, n) != (0, 5):
                cases.append((f"hurwitz.recursion_residual({g},{n})",
                              lambda g=g, n=n: hur.fh_recursion_residual(g, n)))
    return cases


def _wire(value):
    if isinstance(value, (list, tuple)):
        return [_wire(v) for v in value]
    return value.to_json()


class Marks:
    """The ready and end marks of the measured span, with CPU at each, and
    the wall and CPU time of each segment inside it."""

    def __init__(self):
        self.ready = self.end = None
        self.cpu_ready = self.cpu_end = None
        self.segments: dict[str, list[float]] = {}

    def timed(self, label: str, fn, *args):
        """Call ``fn(*args)`` as the segment ``label`` and return its result."""
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            spent = self.segments.setdefault(label, [0.0, 0.0])
            spent[0] += time.perf_counter() - wall
            spent[1] += time.process_time() - cpu

    def mark_ready(self) -> None:
        if self.ready is None:
            self.cpu_ready = cpu_seconds()
            self.ready = time.monotonic()

    def mark_end(self) -> None:
        self.end = time.monotonic()
        self.cpu_end = cpu_seconds()
        inside = [sum(s[i] for s in self.segments.values()) for i in (0, 1)]
        self.segments["rest"] = [max(0.0, self.end - self.ready - inside[0]),
                                 max(0.0, self.cpu_end - self.cpu_ready - inside[1])]


def time_checks(marks: Marks) -> None:
    """Make every verify check a segment of its own."""
    from eocurves import report

    for checks in report.SUITES.values():
        for i, (check_id, statement, fn) in enumerate(checks):
            checks[i] = (check_id, statement,
                         functools.partial(marks.timed, "check:" + check_id, fn))


def run_verify(cli, suite: str, cache: str, marks: Marks) -> tuple[dict, dict]:
    """``eo verify --suite <suite> --format json --cache <cache>``.

    Set-up ends when the CLI has loaded the cache file (there is none on a
    cold run); the measured span runs to the CLI's return, which includes
    writing the cache file back.
    """
    load = cli.import_caches

    def load_then_mark(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        finally:
            marks.mark_ready()

    cli.import_caches = load_then_mark
    argv = ["verify", "--suite", suite, "--format", "json", "--cache", cache]
    out = io.StringIO()
    if not Path(cache).exists():
        marks.mark_ready()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    marks.mark_end()
    outputs = {"exit_code": code}
    try:
        report = json.loads(out.getvalue())
        outputs["overall"] = report["overall"]
        for check in report["checks"]:
            outputs[check["check_id"]] = check["status"]
    except (ValueError, KeyError, TypeError) as exc:
        outputs["parse_error"] = f"{type(exc).__name__}: {exc}"
    return outputs, {}


def run_ladder(marks: Marks) -> tuple[dict, dict]:
    cases = ladder_cases()
    marks.mark_ready()
    results = [(label, marks.timed(label, thunk)) for label, thunk in cases]
    marks.mark_end()
    return {label: digest(_wire(value)) for label, value in results}, {}


def run_count_table(seed: int, marks: Marks) -> tuple[dict, dict]:
    from eocurves import catalan as cat, hurwitz as hur

    queries = count_queries(seed)
    marks.mark_ready()
    values = []
    for model, g, mu in queries:
        count = cat.catalan_count if model == "catalan" else hur.hurwitz_number
        values.append(marks.timed(query_key(model, g, mu), count, g, len(mu), mu))
    marks.mark_end()
    outputs = {query_key(*q): str(v) for q, v in zip(queries, values)}
    memo = {"catalan": len(getattr(cat, "_count_memo", ())),
            "hurwitz": len(getattr(hur, "_h_memo", ()))}
    return outputs, {"memo_sizes": memo}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--probe", action="store_true",
                        help="stop when set-up is done (a set-up time sample)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cache", default="", help="cache file of verify-*")
    parser.add_argument("--spans", default="", help="where a traced run writes spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from eocurves import cli

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}")
        tracing.install(tracer)

    marks = Marks()
    extra: dict = {}
    if args.probe:
        if args.cache:
            cli.import_caches(Path(args.cache))
        marks.mark_ready()
        outputs: dict = {}
    elif tracer is not None:
        outputs, extra = tracer.span(tracing.ROOT_SPAN, _work, args, cli, marks)
    else:
        outputs, extra = _work(args, cli, marks)

    result = {"ready": marks.ready, "end": marks.end,
              "cpu_s": (marks.cpu_end - marks.cpu_ready) if marks.end else None,
              "maxrss_kb": peak_rss_kb(),
              "segments": marks.segments, "outputs": outputs, **extra}
    if tracer is not None:
        tracer.dump(args.spans)
        result["counters"] = tracer.counters
        result["check_memo_entries"] = tracer.check_memo_entries
        result["missing"] = tracer.missing
    Path(args.out).write_text(json.dumps(result))
    return 0


def _work(args, cli, marks: Marks) -> tuple[dict, dict]:
    if args.workload in VERIFY_SUITES:
        if not args.trace:
            time_checks(marks)
        return run_verify(cli, VERIFY_SUITES[args.workload], args.cache, marks)
    if args.workload == "symbolic-ladder":
        return run_ladder(marks)
    return run_count_table(args.seed, marks)


if __name__ == "__main__":
    sys.exit(main())

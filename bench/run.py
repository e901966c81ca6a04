"""The eocurves benchmark: one workload per call, each sample in a fresh process.

    python3 bench/run.py --workload count-table --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

With ``--trace 0`` it prints the end-to-end metrics; times are the sum, over
the segments of the work, of each segment's fastest time in the run
(``best_of``).  With ``--trace 1`` it
prints the per-layer metrics of one traced run, plus the tracing overhead
against an untraced run.  Every output is checked against digests pinned
from reference code in ``bench/golden/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output matched.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
BENCH_OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from child import VERIFY_SUITES, WORKLOADS  # noqa: E402

# A fixed string-hash seed: with a random one, dict and set layouts (and so
# peak memory) change from process to process.  Bytecode goes to a cache of
# the benchmark's own, written by the warm-up sample, so that set-up time
# never includes compiling and does not depend on the checkout's state.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(BENCH_OUT / "pycache"))
DEADLINE_S = 170     # a run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, how it is read from the traced run).
#   ("self", span)   self time summed over spans of that name
#   ("total", span)  duration summed over spans of that name
#   ("calls", span)  number of spans of that name
#   ("count", key)   a counter the wrappers kept
#   ("ratio", a, b)  counter a over counter b (0 when b is 0)
PER_LAYER = {
    "laurent.mul_calls": ("count", ("calls", "laurent.mul")),
    "laurent.mul_term_pairs": ("count", ("count", "laurent.mul_term_pairs")),
    "laurent.mul_self_s": ("s", ("self", "laurent.mul")),
    "laurent.add_self_s": ("s", ("self", "laurent.add")),
    "laurent.binfrac_add_self_s": ("s", ("self", "laurent.binfrac_add")),
    "laurent.finalize_self_s": ("s", ("self", "laurent.finalize")),
    "laurent.integrate_self_s": ("s", ("self", "laurent.integrate")),
    "laurent.max_terms": ("count", ("count", "laurent.max_terms")),
    "laurent.max_coeff_bits": ("bits", ("count", "laurent.max_coeff_bits")),
    "ratfunc.calls": ("count", ("calls", "ratfunc")),
    "ratfunc.self_s": ("s", ("self", "ratfunc")),
    "linsolve.calls": ("count", ("calls", "linsolve")),
    "linsolve.self_s": ("s", ("self", "linsolve")),
    "linsolve.max_rows": ("count", ("count", "linsolve.max_rows")),
    "catalan.count_calls": ("count", ("calls", "catalan.count")),
    "catalan.count_self_s": ("s", ("self", "catalan.count")),
    "catalan.memo_added": ("count", ("count", "catalan.memo_added")),
    "catalan.count_hit_ratio": ("ratio", ("ratio", "catalan.count_hits",
                                          "catalan.count_outer_calls")),
    "hurwitz.count_calls": ("count", ("calls", "hurwitz.count")),
    "hurwitz.count_self_s": ("s", ("self", "hurwitz.count")),
    "hurwitz.memo_added": ("count", ("count", "hurwitz.memo_added")),
    "hurwitz.count_hit_ratio": ("ratio", ("ratio", "hurwitz.count_hits",
                                          "hurwitz.count_outer_calls")),
    "catalan.fe_self_s": ("s", ("self", "catalan.fe")),
    "catalan.fe_terms": ("count", ("count", "catalan.fe_terms")),
    "hurwitz.fe_self_s": ("s", ("self", "hurwitz.fe")),
    "hurwitz.elsv_self_s": ("s", ("self", "hurwitz.elsv")),
    "catalan.s_self_s": ("s", ("self", "catalan.s")),
    "hurwitz.s_self_s": ("s", ("self", "hurwitz.s")),
    "hurwitz.residual_self_s": ("s", ("self", "hurwitz.residual")),
    "wkb.corrections_self_s": ("s", ("self", "wkb.corrections")),
    "wkb.hierarchy_self_s": ("s", ("self", "wkb.hierarchy")),
    "schur.self_s": ("s", ("self", "schur")),
    "qhbar.self_s": ("s", ("self", "qhbar")),
    **{f"report.check_s.{cid}": ("s", ("total", f"report.check.{cid}"))
       for cid in tracing.CHECK_IDS},
    "report.cold_checks": ("count", ("count", "report.cold_checks")),
    "cache.import_s": ("s", ("total", "cache.import")),
    "cache.entries_loaded": ("count", ("count", "cache.entries_loaded")),
    "cache.entries_rejected": ("count", ("count", "cache.entries_rejected")),
    "cache.export_s": ("s", ("total", "cache.export")),
    "cache.file_bytes": ("bytes", ("count", "cache.file_bytes")),
    "cli.render_s": ("s", ("total", "cli.render")),
    "trace.unattributed_s": ("s", ("self", tracing.ROOT_SPAN)),
    "trace.spans": ("count", ("spans",)),
    "trace.wall_s": ("s", ("wall",)),
    "trace.overhead_s": ("s", ("overhead",)),
}


class BenchError(Exception):
    """The benchmark could not run to the end."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values)


def best_of(samples: list[dict], column: int) -> float:
    """Sum over the segments of each segment's fastest time in ``samples``.

    Column 0 is wall time, column 1 CPU time.  Every sample of a run does
    the same work in the same order, so its segments line up one to one.
    """
    labels = list(samples[0]["segments"])
    if any(list(s["segments"]) != labels for s in samples):
        raise BenchError("samples of one run did not run the same segments")
    return sum(min(s["segments"][label][column] for s in samples) for label in labels)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------

def load_golden(workload: str) -> dict:
    """The pinned outputs of ``workload``: one key per operation."""
    if workload not in VERIFY_SUITES:
        return json.loads((GOLDEN / f"{workload}.json").read_text())
    pinned = json.loads((GOLDEN / "verify.json").read_text())
    suite = VERIFY_SUITES[workload]
    return {key: value for key, value in pinned.items()
            if suite == "all" or key in ("exit_code", "overall")
            or key.startswith(suite + "-")}


def compare(outputs: dict, golden: dict) -> list[str]:
    """Keys whose output differs from the pinned value; one key, one operation."""
    return [key for key, want in golden.items() if outputs.get(key) != want]


# ---------------------------------------------------------------------------
# the environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "loadavg_start": [round(v, 2) for v in os.getloadavg()],
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts child processes one at a time in a scratch directory."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def child(self, workload: str, seed: int, *flags: str) -> tuple[float, dict]:
        """Run child.py once; return its start time and its result."""
        self.count += 1
        out = self.workdir / f"child-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out), *flags]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout, env=CHILD_ENV)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"child timed out: {' '.join(cmd)}") from exc
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"child failed ({proc.returncode}): {' '.join(cmd)}\n"
                             f"{proc.stderr[-4000:]}")
        return start, json.loads(out.read_text())


class Tally:
    """Operations attempted and failed, with the first failures for the log."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.examples += other.examples[: max(0, 5 - len(self.examples))]

    def check(self, outputs: dict) -> None:
        bad = compare(outputs, self.golden)
        self.attempted += len(self.golden)
        self.failed += len(bad)
        for key in bad[: max(0, 5 - len(self.examples))]:
            self.examples.append(f"{key}: got {outputs.get(key)!r}, "
                                 f"want {self.golden[key]!r}")


def source_digest() -> str:
    """A digest of the program's sources, naming what a cache file came from."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def warm_cache(seed: int, runner: Runner, tally: Tally) -> Path:
    """The cache file the warm verify workloads load, written by an untimed
    cold run of the whole suite (checked like any other output).

    It depends on the program's sources alone, so it is kept in the
    checkout's scratch directory and reused by later runs of the same code.
    """
    path = BENCH_OUT / f"warm-cache-{source_digest()}.json"
    if not path.exists():
        fresh = runner.workdir / "cold-cache.json"
        _, cold = runner.child("verify-cold", seed, "--cache", str(fresh))
        cold_tally = Tally(load_golden("verify-cold"))
        cold_tally.check(cold["outputs"])
        tally.absorb(cold_tally)
        os.replace(fresh, path)
    return path


def measure(workload: str, seed: int, seconds: int, trace: bool,
            runner: Runner) -> tuple[dict, Tally, list[str]]:
    """Run one workload; return (metrics, tally, lines describing the samples)."""
    tally = Tally(load_golden(workload))
    warm = workload in VERIFY_SUITES and workload != "verify-cold"
    loaded = warm_cache(seed, runner, tally) if warm else None
    probe_flags = ["--cache", str(loaded)] if loaded else []

    def sample(*extra: str) -> dict:
        rep_flags = []
        if workload in VERIFY_SUITES:
            # each sample gets its own copy: the CLI rewrites the file at exit
            cache = runner.workdir / "verify-cache.json"
            cache.unlink(missing_ok=True)
            if loaded:
                shutil.copyfile(loaded, cache)
            rep_flags = ["--cache", str(cache)]
        _, result = runner.child(workload, seed, *rep_flags, *extra)
        tally.check(result.pop("outputs"))
        result["wall_s"] = result["end"] - result["ready"]
        return result

    if trace:
        plain = sample()
        spans_path = runner.workdir / "spans.tsv"
        traced = sample("--trace", "--spans", str(spans_path))
        metrics = layer_metrics(tracing.read_spans(str(spans_path)), traced, plain)
        notes = [f"not traced, absent from this version: {name}"
                 for name in traced["missing"]]
        if traced["check_memo_entries"]:
            cold = [c for c, n in traced["check_memo_entries"].items() if n == 0]
            notes.append(f"checks started with empty memo tables: {cold or 'none'}")
        return metrics, tally, ["1 traced and 1 untraced run", *notes]

    def probe() -> float:
        start, result = runner.child(workload, seed, "--probe", *probe_flags)
        return result["ready"] - start

    probe()  # also compiles bytecode and warms the file cache; not counted
    setups, reps = [], []
    began = time.monotonic()
    while True:  # a set-up sample, then a sample of the work, until time is up
        setups.append(probe())
        reps.append(sample())
        elapsed = time.monotonic() - began
        if elapsed + elapsed / len(reps) > seconds:
            break
    metrics = {
        "wall_s": best_of(reps, 0),
        "cpu_s": best_of(reps, 1),
        "setup_s": min(setups),
        "peak_rss_mb": median(r["maxrss_kb"] / 1024 for r in reps),
    }
    walls = sorted(r["wall_s"] for r in reps)
    return metrics, tally, [
        f"{len(reps)} samples of the measured work, {len(setups)} set-up samples",
        f"whole-sample wall time: median {median(walls):.4g} s, "
        f"slowest {walls[-1]:.4g} s, fastest {walls[0]:.4g} s",
        f"segments per sample: {len(reps[0]['segments'])}"]


def layer_metrics(spans, traced: dict, plain: dict) -> dict:
    """Per-layer metrics of one traced run (``plain`` is the untraced twin)."""
    times = tracing.self_times(spans)
    counters = traced.get("counters", {})
    out = {}
    for name, (_unit, (kind, *keys)) in PER_LAYER.items():
        if kind in ("self", "total", "calls"):
            calls, total, self_s = times.get(keys[0], (0, 0.0, 0.0))
            value = {"self": self_s, "total": total, "calls": calls}[kind]
        elif kind == "count":
            value = counters.get(keys[0], 0)
        elif kind == "ratio":
            den = counters.get(keys[1], 0)
            value = counters.get(keys[0], 0) / den if den else 0.0
        elif kind == "spans":
            value = len(spans)
        elif kind == "wall":
            value = traced["wall_s"]
        else:  # overhead
            value = traced["wall_s"] - plain["wall_s"]
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value)) if isinstance(value, float) else str(value)


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 runner: Runner) -> tuple[dict, Tally]:
    """Measure one workload and print its metrics; return them with the tally."""
    metrics, tally, notes = measure(workload, seed, seconds, trace, runner)
    units = {name: PER_LAYER[name][0] if trace else END_TO_END[name] for name in metrics}
    print(f"workload {workload}, seed {seed}: {notes[0]}")
    for note in notes[1:]:
        print(f"  note: {note}")
    for name, value in metrics.items():
        print(f"  {name:34s} {fmt(value):>14s} {units[name]}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_ratio':34s} {fmt(ratio):>14s} ratio "
          f"({tally.failed} failed of {tally.attempted} operations)")
    for line in tally.examples:
        print(f"  MISMATCH {line}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="eocurves benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55,
                        help="measured time to fill with repeated runs (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "eocurves" / "__init__.py").is_file():
        print(f"bench: no eocurves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not GOLDEN.is_dir():
        print(f"bench: no pinned outputs under {GOLDEN}", file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment()))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = BENCH_OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    metrics: dict = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            runner = Runner(workdir, time.monotonic() + DEADLINE_S)
            got, tally = run_workload(workload, args.seed, args.seconds,
                                      bool(args.trace), runner)
            if len(workloads) > 1:
                got = {f"{workload}.{k}": v for k, v in got.items()}
            metrics.update(got)
            attempted += tally.attempted
            failed += tally.failed
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

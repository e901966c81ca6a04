"""Self-tests of the benchmark's own code.

    python3 -m pytest bench -q

The program itself is only run, never changed: the corruption tests
corrupt copies of its outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# -- spans and self time -----------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0,10] holds a [1,4] (which holds b [2,3]) and c [5,9]
    spans = [(0, -1, "root", 0.0, 10.0), (1, 0, "a", 1.0, 4.0),
             (2, 1, "b", 2.0, 3.0), (3, 0, "c", 5.0, 9.0)]
    times = tracing.self_times(spans)
    assert times["root"] == (1, 10.0, 3.0)
    assert times["a"] == (1, 3.0, 2.0)
    assert times["b"] == (1, 1.0, 1.0)
    assert times["c"] == (1, 4.0, 4.0)


def test_self_time_sums_over_spans_of_one_name():
    spans = [(0, -1, "f", 0.0, 4.0), (1, 0, "f", 1.0, 2.0), (2, -1, "f", 5.0, 6.0)]
    calls, total, self_s = tracing.self_times(spans)["f"]
    assert (calls, total, self_s) == (3, 6.0, 5.0)


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert tracing.covered([], 0, 10) == 0


def test_tracer_records_parents_and_round_trips(tmp_path):
    tracer = tracing.Tracer("t")
    tracer.span("outer", lambda: tracer.span("inner", lambda: 7))
    path = tmp_path / "spans.tsv"
    tracer.dump(str(path))
    spans = tracing.read_spans(str(path))
    (outer,) = [s for s in spans if s[2] == "outer"]
    (inner,) = [s for s in spans if s[2] == "inner"]
    assert inner[1] == outer[0] and outer[1] == -1
    assert outer[3] <= inner[3] <= inner[4] <= outer[4]


def test_count_wrapper_counts_memo_growth_and_hits():
    sys.path.insert(0, str(run.ROOT / "src"))
    from eocurves import catalan as cat

    cat.clear_caches()
    tracer = tracing.Tracer("t")
    original = cat.catalan_count
    wrapped = tracing._make_wrapper(tracer, "catalan.count", cat, original)
    try:
        wrapped(0, 1, [6])
        added = len(cat._count_memo)
        wrapped(0, 1, [6])
    finally:
        cat.clear_caches()
    assert tracer.counters["catalan.memo_added"] == added > 0
    assert tracer.counters["catalan.count_hits"] == 1
    assert tracer.counters["catalan.count_outer_calls"] == 2


# -- statistics ---------------------------------------------------------------

def test_median_and_quartile_spread():
    assert run.median([3, 1, 2]) == 2
    assert run.median([4, 1, 3, 2]) == 2.5
    values = list(range(1, 11))
    # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25, median 5.5
    assert run.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert run.quartile_spread([2.0] * 5) == 0


def test_best_of_sums_each_segments_fastest_time():
    samples = [{"segments": {"a": [1.0, 0.9], "b": [5.0, 4.0], "rest": [0.2, 0.1]}},
               {"segments": {"a": [2.0, 1.8], "b": [3.0, 3.5], "rest": [0.1, 0.3]}}]
    assert run.best_of(samples, 0) == pytest.approx(1.0 + 3.0 + 0.1)
    assert run.best_of(samples, 1) == pytest.approx(0.9 + 3.5 + 0.1)
    assert run.best_of(samples[:1], 0) == pytest.approx(6.2)


def test_best_of_refuses_samples_that_did_different_work():
    samples = [{"segments": {"a": [1.0, 1.0]}}, {"segments": {"b": [1.0, 1.0]}}]
    with pytest.raises(run.BenchError):
        run.best_of(samples, 0)


def test_marks_time_segments_and_the_rest():
    marks = child.Marks()
    marks.mark_ready()
    assert marks.timed("x", lambda a, b: a + b, 2, 3) == 5
    marks.timed("x", sum, [1])
    marks.mark_end()
    assert list(marks.segments) == ["x", "rest"]
    inside = marks.segments["x"][0]
    assert inside >= 0 and marks.segments["rest"][0] >= 0
    assert inside + marks.segments["rest"][0] == pytest.approx(marks.end - marks.ready,
                                                               abs=1e-4)


# -- checking outputs ---------------------------------------------------------

def test_corrupted_count_is_one_failed_operation():
    golden = run.load_golden("count-table")
    outputs = dict(golden)
    key = sorted(outputs)[17]
    outputs[key] = str(int(outputs[key].split("/")[0]) + 1)
    tally = run.Tally(golden)
    tally.check(outputs)
    assert (tally.attempted, tally.failed) == (len(golden), 1)
    assert tally.examples[0].startswith(key)


def test_corrupted_free_energy_fails_its_digest():
    sys.path.insert(0, str(run.ROOT / "src"))
    from eocurves import catalan as cat

    golden = run.load_golden("symbolic-ladder")
    wire = cat.free_energy(0, 4).to_json()
    assert child.digest(wire) == golden["catalan.F(0,4)"]
    wire[0][1] = wire[0][1] + "1"
    outputs = dict(golden, **{"catalan.F(0,4)": child.digest(wire)})
    assert run.compare(outputs, golden) == ["catalan.F(0,4)"]


def test_missing_and_failed_checks_count_as_failed():
    golden = run.load_golden("verify-cold")
    outputs = dict(golden)
    outputs["hurwitz-heat"] = "fail"
    del outputs["schur-tau"]
    assert sorted(run.compare(outputs, golden)) == ["hurwitz-heat", "schur-tau"]


def test_suite_workload_checks_only_its_own_suite():
    everything = run.load_golden("verify-cold")
    catalan = run.load_golden("verify-catalan-warm")
    assert run.load_golden("verify-warm") == everything
    assert set(catalan) == {k for k in everything if k.startswith("catalan-")} | {
        "exit_code", "overall"}
    assert len(catalan) == 11


# -- workload inputs ------------------------------------------------------------

def test_count_table_seed_changes_order_only():
    one, two = child.count_queries(1), child.count_queries(2)
    assert one != two and sorted(one) == sorted(two)
    assert len(one) == len(run.load_golden("count-table"))


def _count_table_run(tmp_path: Path, seed: int) -> dict:
    out = tmp_path / f"ct-{seed}.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", "count-table",
                    "--seed", str(seed), "--out", str(out)], check=True, timeout=170)
    return json.loads(out.read_text())


def test_two_seeds_give_identical_table_and_memo_sizes(tmp_path):
    one, two = _count_table_run(tmp_path, 1), _count_table_run(tmp_path, 2)
    assert child.digest(one["outputs"]) == child.digest(two["outputs"])
    assert one["memo_sizes"] == two["memo_sizes"]
    assert run.compare(one["outputs"], run.load_golden("count-table")) == []


# -- the contract -----------------------------------------------------------------

def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in run.PER_LAYER.values()]
    assert {w["name"] for w in spec["workloads"]} <= set(child.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "count-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

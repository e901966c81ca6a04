"""Run the benchmark on several seeds and report how steady each metric is.

    python3 bench/steadiness.py --workload count-table --runs 10

For every end-to-end metric it prints the median of the runs, the first
and third quartile, and their distance as a share of the median (the
"spread"), next to the metric's bound in BENCHMARK.json.  A spread above
the bound means two sets of runs of the same code could disagree by more
than the bound, so a comparison at that bound is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, median, quartile_spread


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else None
        if proc.returncode != 0 or not result or not result["correct"]:
            print(f"seed {seed}: run failed\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.4g}"
                                           for n, m in result["metrics"].items()),
              flush=True)

    print(f"{args.workload}, {args.runs} runs:")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        spread = quartile_spread(vals)
        print(f"  {metric['name']:12s} median {median(vals):.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {spread:.4f} bound {metric['bound']}"
              f"{'' if spread <= metric['bound'] else '  ABOVE BOUND'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

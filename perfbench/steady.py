#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare spreads with bounds.

    python3 perfbench/steady.py --runs 10

Runs ``run.py`` on every workload of BENCHMARK.json with seeds 1..runs and
``run_seconds``, one run at a time, then prints for every end-to-end metric
the median, the quartiles (``statistics.quantiles`` with n=4), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json.  A spread
above a third of its bound is flagged, except for ``setup_s``, whose bound
applies to the median only.  The share of failed requests must be the same in
every run.  Raw results go to ``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=300)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            result["wall_s"] = time.perf_counter() - start
            runs.append(result)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {sorted(shares)}")
        steady &= len(shares) == 1
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            wide = name != "setup_s" and spread > bound / 3
            steady &= not wide
            print(f"  {name:<14}{median:>12.4g}{q1:>12.4g}{q3:>12.4g}{spread:>9.3f}{bound:>8}"
                  f"{'  WIDE' if wide else ''}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"steady-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"\n{'steady' if steady else 'NOT steady'}; raw results in {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

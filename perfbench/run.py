#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last output line.

    python3 perfbench/run.py --workload label-recipes --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass (spans are written to
``.bench_out/``).  A summary goes to standard error.
"""

import time

# Times are reported at a fixed machine speed: the speed at which reference()
# takes REFERENCE_S (about the median on the machine the benchmark was
# written on).  See measure().
REFERENCE_LOOPS = 10_000
REFERENCE_S = 0.0008


def reference():
    """Time of a fixed pure-Python loop that touches no program code and
    allocates nothing the garbage collector tracks: the machine's speed now."""
    start = time.perf_counter()
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


SPEED_BEFORE = [reference() for _ in range(5)]
STARTED = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict

import spans
import workloads

SETUP_REPEATS = 3
WINDOW_S = 0.5
SETUP_BUDGET_S = 2.0
OUT_DIR = os.path.join(workloads.ROOT, ".bench_out")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for repeats)")
    return ap.parse_args(argv)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def min_samples(q):
    """Samples needed for at least ten to lie beyond the q-quantile."""
    return round(10 / (1 - q))


def measure(wl, seconds):
    """Closed loop over whole rounds until ``seconds`` have passed and the
    tail percentile has ten samples beyond it.

    Returns the number of rounds, every outcome, and the latencies of the
    requests the run sent for the first time, raw and scaled.  Only those
    count in the figures: a repeat of an input the process has already
    served would measure a cache, not the work.

    The shared machine the benchmark was written on runs for ten seconds and
    more at a time about 1.5 times slower than at others, which moves a
    run's figures far more than the bounds allow.  So reference() runs
    before every request, and each latency is scaled by REFERENCE_S over the
    median reference time from WINDOW_S before the request to WINDOW_S after
    it (at least the three reference times on either side).
    """
    outcomes, first, stamps, refs = [], {}, [], []

    def sample():
        stamps.append(time.perf_counter())
        refs.append(reference())

    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds or len(first) < min_samples(wl.tail_q):
        for req in wl.round(r):
            sample()
            outcome = wl.run(req)
            outcomes.append(outcome)
            if outcome.seconds is not None:
                first.setdefault(req.key, (outcome.seconds, len(refs) - 1))
        r += 1
    for _ in range(3):
        sample()

    def speed(j):
        lo = min(j - 2, bisect.bisect_left(stamps, stamps[j] - WINDOW_S))
        hi = max(j + 4, bisect.bisect_right(stamps, stamps[j + 1] + WINDOW_S))
        return statistics.median(refs[max(0, lo):hi])

    raw = [s for s, _ in first.values()]
    scaled = [s * REFERENCE_S / speed(j) for s, j in first.values()]
    return r, outcomes, raw, scaled


def setup_repeats(args, first):
    """Set-up times: this process's, then fresh processes making the run's
    inputs again, at least SETUP_REPEATS in all and more while they are cheap."""
    times = [first]
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_BUDGET_S and len(times) < 15):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, cwd=workloads.ROOT, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def untraced(wl, args, setup_s):
    rounds, outcomes, raw, lat = measure(wl, args.seconds)
    # cli-cold's memory is that of its child processes; read it before the
    # set-up repeats add theirs.
    usage = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliCold) else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024
    setups = setup_repeats(args, setup_s)
    failed = defaultdict(int)
    for o in outcomes:
        failed[o.kind] += not o.ok
    print(f"{args.workload}: {rounds} rounds, {len(outcomes)} requests; figures from "
          f"{len(lat)} first-time latencies, tail = p{wl.tail_q * 100:g}; "
          f"failed by kind {dict(failed)}; "
          f"set-up runs {[round(s, 4) for s in setups]}; unscaled p50 "
          f"{statistics.median(raw) * 1000:.3f} ms, {len(raw) / sum(raw):.2f} ops/s; "
          f"speed scale {sum(lat) / sum(raw):.3f}", file=sys.stderr)
    return {
        # Every request is checked; a request that fails its check counts in "failed".
        "correct": True,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
            "tail_ms": {"value": percentile(lat, wl.tail_q) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        },
    }


def traced(wl, args):
    """Passes over round 0 until ``--seconds`` have passed.  Each request runs
    untraced and traced, back to back, so the tracing overhead compares the
    same work at the same moment; spans are kept from the first pass."""
    reqs = wl.round(0)
    cli = isinstance(wl, workloads.CliCold)
    in_process = wl.run_in_process if cli else lambda req: (wl.run(req), 0)
    outcomes = []
    if cli:  # first in-process calls build the caches a warm process has
        outcomes += [in_process(req)[0] for req in reqs]

    kept = spans.Tracer()
    plain_s = traced_s = 0.0
    main_ms, stdout_bytes, import_ms = [], [], []
    child_ms = defaultdict(list)
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        tracer = kept if passes == 0 else spans.Tracer()
        for i, req in enumerate(reqs):
            if cli:
                child = wl.run(req)
                outcomes.append(child)
                if child.seconds is not None:
                    child_ms[req.kind].append(child.seconds * 1000)
                if passes == 0:
                    import_ms.append(wl.import_seconds() * 1000)
            if (i + passes) % 2:  # alternate which goes first, so neither gains from order
                plain, nbytes = in_process(req)
            tracer.request = i
            tracer.install(wl.modules)
            try:
                traced_outcome, _ = in_process(req)
            finally:
                tracer.uninstall()
            if not (i + passes) % 2:
                plain, nbytes = in_process(req)
            outcomes += [plain, traced_outcome]
            if plain.seconds is not None:
                plain_s += plain.seconds
                traced_s += traced_outcome.seconds
                main_ms.append(plain.seconds * 1000)
                stdout_bytes.append(nbytes)
        passes += 1

    metrics = spans.layer_metrics(kept, len(reqs))
    median_ms = lambda v: statistics.median(v) if v else 0.0
    metrics.update({
        "cli.import_ms": (median_ms(import_ms), "ms"),
        "cli.main_ms": (median_ms(main_ms) if cli else 0.0, "ms"),
        "cli.stdout_bytes": (statistics.mean(stdout_bytes) if cli else 0.0, "B/req"),
        "cli.label_ms": (median_ms(child_ms["label"]), "ms"),
        "cli.verify_ms": (median_ms(child_ms["verify"]), "ms"),
        "cli.feasible_ms": (median_ms(child_ms["feasible"]), "ms"),
        "trace.overhead_pct": ((traced_s / plain_s - 1) * 100, "%"),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    kept.write(path)
    ok = sum(o.ok for o in outcomes)
    print(f"{args.workload} traced: {passes} passes of {len(reqs)} requests, "
          f"{len(kept.spans)} spans -> {path}", file=sys.stderr)
    return {
        "correct": True,
        "attempted": len(outcomes),
        "failed": len(outcomes) - ok,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    # Scaled like the latencies, by the reference times just before and after.
    setup_s = (time.perf_counter() - STARTED) * REFERENCE_S / statistics.median(
        SPEED_BEFORE + [reference() for _ in range(5)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = traced(wl, args) if args.trace else untraced(wl, args, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of confighom's exact, predictor and gauge/spanning pipelines.

    python3 bench/run.py --workload exact_h1 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

One workload runs per process, single-threaded, as a closed loop with one
caller.  The case list of a round is built from the seed; rounds repeat
until the next one would overrun --seconds (at least one round; a traced run
makes exactly one, so its counts repeat).  Outputs are checked outside the
timed region.  Case times are reported in reference milliseconds (see
reference_loop).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Results and traces are
also written under bench/out/.  `--workload all` runs every workload, each
in a fresh process, and prints their metrics under "<workload>." names.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
TAIL_MIN_CASES = 100
REF_LOOPS = 5
COUNTS = ("complexes.cells2", "complexes.boundary2_nnz", "spanning.cycles",
          "gauge.targets")


def reference_loop() -> None:
    """Fixed pure-Python work that uses nothing from confighom: tuple keys in
    a dict, Fraction sums and a sort, as in the library's inner loops.

    One run of it is the reference millisecond (ref_ms); it takes about 1 ms
    on a quiet 2-vCPU VM.  The host's speed can halve from one case to the
    next and moves every timing alike, so case times divided by this loop's
    time, taken all through the run, repeat where raw times do not.
    """
    d: dict[tuple, int] = {}
    acc = Fraction(0)
    for i in range(200):
        key = (i % 17, i % 13, i)
        d[key] = d.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    sorted(d.items(), key=lambda kv: -kv[1])


def time_reference_loop() -> float:
    """Seconds one run of reference_loop takes now (mean of REF_LOOPS)."""
    t0 = time.perf_counter()
    for _ in range(REF_LOOPS):
        reference_loop()
    return (time.perf_counter() - t0) / REF_LOOPS


def percentile(sorted_values: list[float], q: float, width: float) -> float:
    """The q-quantile as the mean of the values ranked within `width` of it.

    One order statistic carries the full noise of a single case; averaging
    its neighbours steadies the estimate.
    """
    n = len(sorted_values)
    lo = min(n - 1, math.floor((q - width) * n))
    hi = max(lo + 1, math.ceil((q + width) * n))
    window = sorted_values[lo:hi]
    return sum(window) / len(window)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_workload(args) -> dict:
    import tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - STARTED
    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = workload.inputs()
        setups.append(time.perf_counter() - t0)

    # the cyclic collector then skips the inputs and modules, and a collection
    # before each case resets its allocation counters, so the collections
    # inside a case do not depend on which cases ran before it
    gc.collect()
    gc.freeze()
    tracer = tracing.Tracer() if args.trace else None
    L = tracing.layer_functions(tracer)
    counts = dict.fromkeys(COUNTS, 0)
    durations: list[float] = []
    references: list[float] = []  # loop times before each case, and at the end
    spent: list[float] = []       # every case's time, failed ones too
    timed = attempted = failed = 0
    correct = True
    while True:
        round_start = timed
        for case in cases:
            attempted += 1
            gc.collect()
            references.append(time_reference_loop())
            if tracer:
                tracer.case = case.id
                span = tracer.open(tracing.CASE_SPAN)
            t0 = time.perf_counter()
            try:
                out = workload.run(L, case, counts)
            except Exception as exc:  # a failed operation, counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            timed += dt
            spent.append(dt)
            if isinstance(out, Exception):
                failed += 1
                print(f"{case.id}: failed: {out!r}", file=sys.stderr)
                continue
            durations.append(dt)
            try:
                workload.check(case, out)
            except Exception as exc:
                correct = False
                print(f"{case.id}: wrong output: {exc!r}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            del out
        if tracer or timed + (timed - round_start) > args.seconds:
            break

    references.append(time_reference_loop())
    # one ref_ms in seconds, averaged as each statistic averages: over cases
    # for the percentiles, over case time (each case's time weighted by the
    # loop times around it) for throughput
    ref_s = statistics.fmean(references)
    ref_s_over_time = sum(dt * (references[i] + references[i + 1]) / 2
                          for i, dt in enumerate(spent)) / timed
    durations.sort()
    if tracer:
        metrics = layer_metrics(tracer, counts, durations, ref_s)
        write(f"trace-{args.workload}-seed{args.seed}.json", tracer.to_json())
    else:
        completed = attempted - failed
        p50 = percentile(durations, 0.5, 0.15)
        print(f"wall time: {completed / timed:.6g} cases/s, p50 {1000 * p50:.6g} ms;"
              f" reference loop {1000 * ref_s:.6g} ms")
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "cases_per_ref_s": (
                completed / (timed / ref_s_over_time / 1000), "1/ref_s"),
            "case_ref_ms.p50": (p50 / ref_s, "ref_ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_metrics(tracer, counts: dict, durations: list[float],
                  ref_s: float) -> dict:
    import tracing

    self_s = tracer.self_times()
    metrics = {}
    for module, names in tracing.LAYERS.items():
        for name in names:
            key = f"{tracing.layer_name(module)}.{name}"
            metrics[f"{key}_s"] = (self_s.get(key, 0.0), "s")
    metrics.update({k: (v, "count") for k, v in counts.items()})
    case_s = sum(end - start for name, start, end, _, _ in tracer.spans
                 if name == tracing.CASE_SPAN)
    metrics["bench.case_s"] = (case_s, "s")
    metrics["bench.self_s"] = (self_s.get(tracing.CASE_SPAN, 0.0), "s")
    metrics["bench.spans"] = (len(tracer.spans), "count")
    # a tail only where a round has enough cases; 0 elsewhere
    p90 = (percentile(durations, 0.9, 0.05) if len(durations) >= TAIL_MIN_CASES
           else 0.0)
    metrics["bench.case_ref_ms.p90"] = (p90 / ref_s, "ref_ms")
    metrics["bench.ref_loop_ms"] = (1000 * ref_s, "ms")
    return metrics


def write(name: str, obj) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(obj, fh)


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after another."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update(
            {f"{name}.{k}": m for k, m in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "confighom" / "__init__.py").is_file():
        print(f"error: no confighom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(args)
        for key, m in result["metrics"].items():
            print(f"{key} = {m['value']:.6g} {m['unit']}")
        write(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              result)
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

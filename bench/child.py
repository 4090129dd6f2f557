"""One workload in one fresh process; prints one JSON line.

Modes:
  setup   time the workload's set-up and stop.
  run     set up, check one round (untimed), then time whole rounds for
          --seconds and report the end-to-end figures.
  traced  as run, but half of --seconds untraced and half with spans on;
          then the workload's extra layer probes, traced; write the spans
          to --spans and report the per-layer figures and the tracing
          overhead.
  alloc   tracemalloc peak of the long_words set-up.

Run by run.py with the program's `src` on PYTHONPATH.
"""

import argparse
import json
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median, quantiles

from oracle import CheckFailed
from spans import Tracer
from workloads import WORKLOADS, alloc_peak_mb


def _no_span(name, tag=""):
    return nullcontext()


class Phase:
    """Runs operations one at a time, timing each; one phase is either
    all untraced or all traced."""

    def __init__(self, api, tracer=None):
        self.api = api
        self.span = tracer.span if tracer else _no_span
        self.times = []
        self.round_medians = []
        self.outputs = []
        self.attempted = 0
        self.failures = 0

    def call(self, fn, *args):
        """fn(*args), timed; None if it raised, which counts as failed and
        stands in the round's outputs as ("failed", exception type)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that fails is counted, not fatal
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            self.failures += 1
            self.outputs.append(("failed", type(exc).__name__))
            return None
        self.times.append(time.perf_counter() - start)
        self.outputs.append(out)
        return out

    def ops_per_s(self):
        return len(self.times) / sum(self.times)


def check_round(workload, ph):
    try:
        workload.round(ph, checking=True)
        return True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False


def timed_rounds(workload, ph, seconds, reference):
    """Whole rounds until the next one would end past `seconds` (at least
    one); every round's outputs must equal the checked round's."""
    start = time.perf_counter()
    same = True
    while True:
        begin, first = len(ph.outputs), len(ph.times)
        t = time.perf_counter()
        workload.round(ph, checking=False)
        if ph.outputs[begin:] != reference:
            print("a timed round's outputs differ from the checked round's",
                  file=sys.stderr)
            same = False
        ph.round_medians.append(median(ph.times[first:]))
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return same


def summary(ph):
    """ops_per_s over all timed operations; op_p50_ms as the median over
    rounds of each round's median, which stays inside one operation's
    cluster of times where the pooled median would hop between the two
    clusters that straddle it; the pooled p90 for reference."""
    return {
        "ops_per_s": ph.ops_per_s(),
        "op_p50_ms": median(ph.round_medians) * 1e3,
        "op_p90_ms": quantiles(ph.times, n=10)[-1] * 1e3
        if len(ph.times) > 1 else ph.times[0] * 1e3,
        "samples": len(ph.times),
        "rounds": len(ph.round_medians),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "traced", "alloc"))
    ap.add_argument("--spans")
    args = ap.parse_args()

    if args.mode == "alloc":
        print(json.dumps({"alloc_peak_mb": alloc_peak_mb(args.seed)}))
        return 0

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.mode == "traced" else None
    start = time.perf_counter()
    workload.setup(tracer)
    result = {"setup_s": time.perf_counter() - start}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    check = Phase(workload.raw)
    correct = check_round(workload, check)
    phases = [check]
    untraced = Phase(workload.raw)
    phases.append(untraced)
    seconds = args.seconds / 2 if tracer else args.seconds
    correct &= timed_rounds(workload, untraced, seconds, check.outputs)
    result.update(summary(untraced))
    if tracer:
        traced = Phase(workload.traced, tracer)
        phases.append(traced)
        correct &= timed_rounds(workload, traced, seconds, check.outputs)
        extras = Phase(workload.traced, tracer)
        phases.append(extras)
        try:
            workload.extras(extras)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        result["layers"] = workload.layer_metrics(tracer)
        result["ops_per_s_traced"] = traced.ops_per_s()
        result["spans"] = len(tracer.spans)
        tracer.write(args.spans)
    result.update(
        correct=correct,
        attempted=sum(ph.attempted for ph in phases),
        failed=sum(ph.failures for ph in phases),
        peak_rss_mb=workload.peak_rss_mb(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

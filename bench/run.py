"""Benchmark of motzkinrow, run from the source tree.

    python3 bench/run.py --workload long_words --seed 1 --seconds 20 --trace 0

Each workload runs in fresh child processes with `src` on PYTHONPATH, one
operation at a time.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 a traced pass of every
workload (the named one for --seconds, the others for OTHER_S) gives the
per-layer metrics and the tracing overhead, and the spans go to
bench/out/.  The metric names printed must match BENCHMARK.json.
Exits non-zero, printing no result, when the source tree is missing, a
child fails or the run overruns its time budget.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BUDGET_S = 170
# A traced run measures the named workload for --seconds and every other
# one for this long (at least one round per phase).
OTHER_S = 4.0
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MOTZKINROW_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, seed):
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = child_env()

    def child(self, workload, mode, seconds=0.0, spans=None):
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(self.seed), "--mode", mode,
               "--seconds", str(seconds)]
        if spans:
            cmd += ["--spans", str(spans)]
        left = self.deadline - time.monotonic()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              env=self.env, cwd=ROOT,
                              start_new_session=True) as proc:
            try:
                out, _ = proc.communicate(timeout=max(left, 1))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise SystemExit(f"{workload} {mode}: over the {BUDGET_S} s "
                                 "budget")
        if proc.returncode != 0:
            raise SystemExit(f"{workload} {mode}: child exited "
                             f"{proc.returncode}")
        return json.loads(out.splitlines()[-1])


def untraced(runner, workload, seconds):
    setups = [runner.child(workload, "setup")["setup_s"]
              for _ in range(WORKLOADS[workload].setup_samples - 1)]
    main = runner.child(workload, "run", seconds)
    setups.append(main["setup_s"])
    print(f"reference {workload}: op_p90_ms={main['op_p90_ms']:.4f} over "
          f"{main['samples']} timed operations; setup_s samples "
          f"{', '.join(f'{s:.4f}' for s in setups)}")
    values = dict(main, setup_s=median(setups))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return main, metrics


def traced(runner, workload, seconds):
    OUT.mkdir(exist_ok=True)
    order = [workload] + [w for w in WORKLOADS if w != workload]
    results, metrics = {}, {}
    for name in order:
        spans = OUT / f"spans-{workload}-seed{runner.seed}-{name}.jsonl"
        res = results[name] = runner.child(
            name, "traced", seconds if name == workload else OTHER_S, spans)
        print(f"reference {name}: {res['spans']} spans in {spans.name}")
        metrics.update({k: {"value": v, "unit": u}
                        for k, (v, u) in res["layers"].items()})
        plain, spanned = res["ops_per_s"], res["ops_per_s_traced"]
        metrics[f"trace.ops_per_s_untraced.{name}"] = {"value": plain,
                                                       "unit": "1/s"}
        metrics[f"trace.ops_per_s_traced.{name}"] = {"value": spanned,
                                                     "unit": "1/s"}
        metrics[f"trace.overhead_pct.{name}"] = {
            "value": (plain / spanned - 1) * 100, "unit": "%"}
    alloc = runner.child("long_words", "alloc")["alloc_peak_mb"]
    metrics["bigcomb.cold_alloc_peak_mb"] = {"value": alloc, "unit": "MB"}
    main = {k: all(r[k] for r in results.values()) if k == "correct"
            else sum(r[k] for r in results.values())
            for k in ("correct", "attempted", "failed")}
    return main, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "motzkinrow" / "__init__.py").is_file():
        print(f"no motzkinrow source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]}

    runner = Runner(args.seed)
    run = traced if args.trace else untraced
    main, metrics = run(runner, args.workload, args.seconds)
    if set(metrics) != wanted:
        print(f"metrics differ from BENCHMARK.json: missing "
              f"{sorted(wanted - set(metrics))}, extra "
              f"{sorted(set(metrics) - wanted)}", file=sys.stderr)
        return 1
    result = {"correct": main["correct"], "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

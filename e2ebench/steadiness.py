#!/usr/bin/env python3
"""Steadiness check: runs e2ebench workloads over several seeds and reports,
per end-to-end metric, the median and the quartile spread (Q3 - Q1) as a
share of the median, next to the bound BENCHMARK.json fixes.

    python3 e2ebench/steadiness.py --seeds 1-10 [--workloads a,b] [--seconds S]

Runs alternate between workloads (seed-major order), one at a time, never
overlapping. Every result line is appended to
.bench_build/e2ebench-steadiness.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    log_path = os.path.join(ROOT, ".bench_build", "e2ebench-steadiness.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    results = {w: [] for w in args.workloads.split(",")}
    for seed in parse_seeds(args.seeds):
        for workload in results:
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", args.trace],
                capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed,
                                                     run.stderr[-2000:]))
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"] if len(lines) > 1 else {}
            results[workload].append((result, context))
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "context": context,
                                      "result": result}) + "\n")
            print("%-15s seed %-3d failed %d/%d steal %.1f%%" % (
                workload, seed, result["failed"], result["attempted"],
                context.get("steal_pct", -1)), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload, runs in results.items():
        print("\n" + workload)
        rows = [(name, [r["metrics"][name]["value"] for r, _ in runs])
                for name in runs[0][0]["metrics"]]
        # Context figures (wall time, the serve mix) are not gated; their
        # spread shows whether they could be.
        rows += [(name + " (context)", [c[name] for _, c in runs])
                 for name in ("op_wall_p50_ms", "reads_per_update")
                 if all(name in c for _, c in runs)]
        for name, values in rows:
            median = statistics.median(values)
            spread = float("nan")
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread == spread:
                flag = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
            print("  %-28s median %-14.6g spread %6.2f%%  bound %-5s %s" % (
                name, median, 100 * spread,
                "-" if bound is None else "%g" % bound, flag))
        steal = [c.get("steal_pct", -1) for _, c in runs]
        print("  steal %.1f-%.1f%%, %d ops attempted, %d failed" % (
            min(steal), max(steal), sum(r["attempted"] for r, _ in runs),
            sum(r["failed"] for r, _ in runs)))


if __name__ == "__main__":
    main()

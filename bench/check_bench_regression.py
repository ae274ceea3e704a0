#!/usr/bin/env python3
"""Gates CI on the committed benchmark trajectories.

Usage: check_bench_regression.py COMMITTED.json FRESH.json \
           [COMMITTED.json FRESH.json ...] [--min-ratio R]

Positional arguments are (committed, fresh) file pairs — one per
benchmark suite (BENCH_generation.json, BENCH_kernels.json,
BENCH_storage.json, BENCH_update.json). Three checks:

0. Baseline host (per committed file): its Google Benchmark context must
   report num_cpus >= 2. A baseline recorded on one CPU carries
   meaningless thread sweeps (BM_MatMulThreads), so it is refused rather
   than compared against.

1. Trajectory (per pair): every benchmark present in the committed file
   must exist in the fresh run and reach at least R (default 0.25) of its
   committed throughput. Throughput is items_per_second when the
   benchmark reports it, else 1/real_time. The bar is deliberately loose
   — CI machines differ from the machine that produced the committed file
   — but a 4x collapse on the same binary marks a real algorithmic
   regression (e.g. an O(1) draw silently degrading to a scan, or a
   sparse path quietly densifying), not hardware noise.

2. Acceptance ratios (same-machine, hardware-independent, evaluated
   against the union of all fresh runs): the shipped paths must beat
   their pre-conversion `...Ref` replicas —
     - BM_DymondDrawLoopAlias/1048576 >= 5x BM_DymondDrawLoopCdfRef/1048576
       (the PR-7 bar: >= 5x edges/sec on a generation-heavy method at
       n >= 1e5),
     - BM_WalkStartsAlias >= 5x BM_WalkStartsCdfRebuildRef (the TIGGER /
       TagGen per-walk start path; in practice orders of magnitude), and
     - BM_SparseScoreSampling/4096/64 >= 5x BM_DenseScoreSamplingRef/4096
       (the PR-8 storage bar: sparse top-k rows vs the flat n^2 alias
       rebuild they replaced), and
     - BM_UpdateTigger >= 2x BM_FullRefitTiggerRef (the incremental-fit
       bar: restore state + Update(delta) vs refitting the full stream),
     - BM_KernelExpRowSum/4096 and BM_KernelRowMax/4096 >= 1.5x their
       ScalarRef replicas (the explicit-SIMD kernel-layer bar; only
       emitted when a SIMD backend is active), and
     - BM_DenseLossStep/1354/954/32 >= 1.5x
       BM_DenseLossStepComposedRef/1354/954/32 (the fused dense-loss bar:
       Affine decode + sparse-target loss + Backward vs the composition
       they replaced, at the serve-mixed live model's fit shape).
"""

import argparse
import json
import sys

# Fewest CPUs a committed baseline's recording host may have had.
MIN_BASELINE_CPUS = 2

HARD_RATIO_GATES = [
    ("BM_DymondDrawLoopAlias/1048576", "BM_DymondDrawLoopCdfRef/1048576", 5.0),
    ("BM_WalkStartsAlias", "BM_WalkStartsCdfRebuildRef", 5.0),
    ("BM_SparseScoreSampling/4096/64", "BM_DenseScoreSamplingRef/4096", 5.0),
    # The incremental-fit bar: restoring fitted state and absorbing a
    # delta batch must beat refitting on the full stream (measured 5x+ on
    # TIGGER; gated at 2x for cross-hardware headroom).
    ("BM_UpdateTigger", "BM_FullRefitTiggerRef", 2.0),
    # SIMD kernel-layer bars: the dispatched AVX2 variants vs the
    # scalar reference loops. The dispatched benches only register when a
    # SIMD backend is active, so forced-scalar runs skip these gates.
    ("BM_KernelExpRowSum/4096", "BM_KernelExpRowSumScalarRef/4096", 1.5),
    ("BM_KernelRowMax/4096", "BM_KernelRowMaxScalarRef/4096", 1.5),
    # Fused dense training step vs the op-by-op composition it replaced
    # (2.3-3.6x at one thread on a 4-vCPU Xeon; floored like the kernel
    # gates).
    ("BM_DenseLossStep/1354/954/32",
     "BM_DenseLossStepComposedRef/1354/954/32", 1.5),
]


def baseline_cpus(path):
    with open(path) as f:
        return json.load(f).get("context", {}).get("num_cpus", 0)


def load_throughput(path):
    with open(path) as f:
        runs = json.load(f).get("benchmarks", [])
    out = {}
    for b in runs:
        if b.get("run_type", "iteration") != "iteration":
            continue
        if "items_per_second" in b:
            out[b["name"]] = b["items_per_second"]
        elif b.get("real_time", 0) > 0:
            out[b["name"]] = 1.0 / b["real_time"]
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs="+",
                        help="committed/fresh JSON file pairs")
    parser.add_argument("--min-ratio", type=float, default=0.25)
    args = parser.parse_args()
    if len(args.files) % 2 != 0:
        print("error: expected COMMITTED FRESH file pairs")
        return 2

    failures = []
    all_fresh = {}
    for committed_path, fresh_path in zip(args.files[::2], args.files[1::2]):
        fresh = load_throughput(fresh_path)
        all_fresh.update(fresh)
        cpus = baseline_cpus(committed_path)
        if cpus < MIN_BASELINE_CPUS:
            failures.append(
                f"{committed_path}: recorded with num_cpus={cpus}; re-record "
                f"it with bench/run_bench.sh on a host with at least "
                f"{MIN_BASELINE_CPUS} CPUs")
            continue
        committed = load_throughput(committed_path)
        if not committed:
            failures.append(f"no benchmark entries in {committed_path}")
            continue
        print(f"== {committed_path} vs {fresh_path} ==")
        for name, base in sorted(committed.items()):
            if name not in fresh:
                failures.append(f"{name}: missing from fresh run")
                continue
            ratio = fresh[name] / base
            status = "ok" if ratio >= args.min_ratio else "REGRESSION"
            print(f"{name}: {ratio:.2f}x of committed throughput [{status}]")
            if ratio < args.min_ratio:
                failures.append(
                    f"{name}: {ratio:.2f}x of committed throughput "
                    f"(floor {args.min_ratio:.2f}x)")

    gates = 0
    for new, ref, floor in HARD_RATIO_GATES:
        if new not in all_fresh or ref not in all_fresh or all_fresh[ref] <= 0:
            # A suite may legitimately be absent from this invocation (e.g.
            # gating only the generation pair); gate what is present.
            continue
        gates += 1
        speedup = all_fresh[new] / all_fresh[ref]
        status = "ok" if speedup >= floor else "BELOW FLOOR"
        print(f"{new} vs {ref}: {speedup:.1f}x (floor {floor}x) [{status}]")
        if speedup < floor:
            failures.append(
                f"speedup gate {new} vs {ref}: {speedup:.1f}x < {floor}x")
    if gates == 0:
        failures.append("no speedup gate had both benchmarks in a fresh run")

    if failures:
        print("\nbench regression check FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nbench regression check passed "
          f"({len(args.files) // 2} suites, {gates} ratio gates)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

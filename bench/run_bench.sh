#!/usr/bin/env bash
# Runs the micro-kernel, generation, storage, and update benchmarks and
# writes BENCH_kernels.json + BENCH_generation.json + BENCH_storage.json +
# BENCH_update.json — the machine-readable perf artifacts CI uploads on
# every run, so the kernel, generation-path, storage-path, and
# incremental-update performance trajectories are tracked over time.
#
# Usage: bench/run_bench.sh [build-dir] [kernels.json] [generation.json] [storage.json] [update.json]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_kernels.json}"
GEN_OUT="${3:-BENCH_generation.json}"
STORAGE_OUT="${4:-BENCH_storage.json}"
UPDATE_OUT="${5:-BENCH_update.json}"
BIN="${BUILD_DIR}/bench/bench_micro_kernels"
GEN_BIN="${BUILD_DIR}/bench/bench_generation"
STORAGE_BIN="${BUILD_DIR}/bench/bench_storage"
UPDATE_BIN="${BUILD_DIR}/bench/bench_update"

if [[ ! -x "${BIN}" || ! -x "${GEN_BIN}" || ! -x "${STORAGE_BIN}" || ! -x "${UPDATE_BIN}" ]]; then
  echo "error: ${BIN}, ${GEN_BIN}, ${STORAGE_BIN}, or ${UPDATE_BIN} not found or not executable." >&2
  echo "Configure with Google Benchmark installed (libbenchmark-dev) and" >&2
  echo "build first:  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

"${BIN}" \
  --benchmark_out="${OUT}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true

echo "Wrote ${OUT}"

"${GEN_BIN}" \
  --benchmark_out="${GEN_OUT}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true

echo "Wrote ${GEN_OUT}"

"${STORAGE_BIN}" \
  --benchmark_out="${STORAGE_OUT}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true

echo "Wrote ${STORAGE_OUT}"

"${UPDATE_BIN}" \
  --benchmark_out="${UPDATE_OUT}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true

echo "Wrote ${UPDATE_OUT}"

# Headline summaries in the CI log: artifact round-trip latency from the
# kernel suite, and the speedups of the generation, storage and update
# suites (shipped path vs its ...Ref pre-conversion replica).
if command -v python3 > /dev/null; then
  python3 - "${OUT}" "${GEN_OUT}" "${STORAGE_OUT}" "${UPDATE_OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    runs = json.load(f).get("benchmarks", [])
# Artifact save+load latency (the fixed cost of fit-once/serve-many;
# BM_ArtifactSaveLoad rows carry the file size as artifact_bytes).
artifact = [b for b in runs if b["name"].startswith("BM_ArtifactSaveLoad")]
if artifact:
    print("artifact save+load round trip:")
for b in artifact:
    size = b.get("artifact_bytes")
    size_str = f", {size / 1e6:.1f} MB" if size else ""
    print(f"  {b['name']}: {b['real_time'] / 1e6:.1f} ms{size_str}")

with open(sys.argv[2]) as f:
    gen_runs = json.load(f).get("benchmarks", [])
ips = {b["name"]: b["items_per_second"]
       for b in gen_runs if "items_per_second" in b}
SAMPLER_PAIRS = [  # (shipped, pre-conversion reference)
    ("BM_DymondDrawLoopAlias", "BM_DymondDrawLoopCdfRef"),
    ("BM_WalkStartsAlias", "BM_WalkStartsCdfRebuildRef"),
    ("BM_WithoutReplacementTree", "BM_WithoutReplacementRescanRef"),
    ("BM_DrawAlias", "BM_DrawCdfRef"),
]
lines = []
for new, ref in SAMPLER_PAIRS:
    for name, value in sorted(ips.items()):
        if name != new and not name.startswith(new + "/"):
            continue
        ref_name = name.replace(new, ref, 1)
        if ref_name in ips and ips[ref_name] > 0:
            lines.append(f"  {name}: {value / ips[ref_name]:.1f}x")
if lines:
    print("sampler speedup (items/sec vs pre-conversion reference):")
    print("\n".join(lines))

with open(sys.argv[3]) as f:
    storage_runs = json.load(f).get("benchmarks", [])
by_name = {b["name"]: b for b in storage_runs if "items_per_second" in b}
sparse = by_name.get("BM_SparseScoreSampling/4096/64")
dense = by_name.get("BM_DenseScoreSamplingRef/4096")
if sparse and dense and dense["items_per_second"] > 0:
    print("storage edge sampling at n=4096 (sparse top-64 vs dense replica):")
    print(f"  edges/sec: {sparse['items_per_second'] / dense['items_per_second']:.1f}x")
    sparse_rss, dense_rss = sparse.get("peak_rss_mb"), dense.get("peak_rss_mb")
    if sparse_rss and dense_rss:
        print(f"  peak RSS: {sparse_rss:.0f} MB sparse vs {dense_rss:.0f} MB dense")

# Incremental update vs full refit (the serve-side refresh economics).
with open(sys.argv[4]) as f:
    update_runs = json.load(f).get("benchmarks", [])
uips = {b["name"]: b["items_per_second"]
        for b in update_runs if "items_per_second" in b}
UPDATE_PAIRS = [
    ("BM_UpdateTigger", "BM_FullRefitTiggerRef"),
    ("BM_UpdateDymond", "BM_FullRefitDymondRef"),
    ("BM_UpdateNetgan", "BM_FullRefitNetganRef"),
]
lines = [f"  {new}: {uips[new] / uips[ref]:.1f}x"
         for new, ref in UPDATE_PAIRS
         if new in uips and ref in uips and uips[ref] > 0]
if lines:
    print("incremental update speedup (delta edges/sec vs full refit):")
    print("\n".join(lines))
EOF
else
  echo "python3 not found; skipping speedup summaries" >&2
fi

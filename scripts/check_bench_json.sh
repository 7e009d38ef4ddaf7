#!/bin/sh
# Smoke-check the machine-readable bench reports: run one fast bench
# with a small trace length, then validate the BENCH_<name>.json it
# wrote against the schema in src/sim/bench_report.h.
#
# Usage: check_bench_json.sh <bench-binary> <validate_bench_json-binary> \
#            [extra bench args...]
#
# Anything after the two binaries is passed through to the bench
# invocation — the "perf_smoke" ctest uses this to hand the
# google-benchmark microbench a --benchmark_min_time override.
#
# Wired in as the ctests "bench_json_schema" and "perf_smoke"
# (tests/CMakeLists.txt); also runnable by hand from a build tree:
#
#   scripts/check_bench_json.sh build/bench/table5_baselines \
#       build/tools/validate_bench_json

set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <bench-binary> <validator-binary> [bench args...]" >&2
    exit 2
fi

bench="$1"
validator="$2"
shift 2
bench_name=$(basename "$bench")

workdir=$(mktemp -d "${TMPDIR:-/tmp}/ibs_bench_json.XXXXXX")
trap 'rm -rf "$workdir"' EXIT INT TERM

# Small trace keeps this ctest fast; the report schema does not
# depend on the trace length.
IBS_BENCH_INSTR=20000 IBS_BENCH_JSON_DIR="$workdir" "$bench" "$@" \
    > "$workdir/text_output.txt"

report="$workdir/BENCH_${bench_name}.json"
if [ ! -f "$report" ]; then
    echo "FAIL: $bench_name did not write BENCH_${bench_name}.json" >&2
    exit 1
fi

# The validator accepts only schema v2 (meta block included).
"$validator" "$report"

# The microbench carries several rate comparisons. Prefix matching —
# MinTime suffixes the benchmark names.
if [ "$bench_name" = "microbench" ]; then
    # Hard gates: each BM_ObsOverhead cell alternates its two modes'
    # engine runs in one process and reports the median of its pair
    # ratios, so noise sinks single pairs, not the gated median.
    # The disabled observability layer (mode:1) must stay within 10%
    # of the plain loop (mode:0).
    "$validator" --min-stat "$report" \
        "BM_ObsOverhead/mode:1/base:0" median_ratio 0.90
    # Adding a histogram observation per cell (mode:4) on top of
    # enabled counters (mode:2) must also stay within 10% — one
    # observe per engine run is a handful of arithmetic ops.
    "$validator" --min-stat "$report" \
        "BM_ObsOverhead/mode:4/base:2" median_ratio 0.90
    # Warn-only: the batched run-length fetch path should beat the
    # scalar per-instruction loop by >=1.5x on a Release build (see
    # EXPERIMENTS.md "Run-length fetch path"). Throughput under a CI
    # load is too noisy to hard-gate, but the schema/cell checks
    # above still hard-fail if the cells go missing.
    "$validator" --compare-rate-warn "$report" \
        "BM_BatchedVsScalar/batched:1" "BM_BatchedVsScalar/batched:0" \
        1.5
    # Warn-only, same reasoning: classifying a run with one probe per
    # cache (ThreeCClassifier::accessRun) should beat one access per
    # instruction by >=1.5x.
    "$validator" --compare-rate-warn "$report" \
        "BM_ThreeC/run:1" "BM_ThreeC/run:0" 1.5
fi

# Warn-only: the collapsed sweep executor should beat the per-cell
# path by >=2x on the fig4 grid shape (eight of nine configs share
# one L1 capture + LRU stack pass per workload; see EXPERIMENTS.md
# "Sweep collapsing"). Exactness is gated separately and hard — the
# cell-level parity tests in sweep_collapse_test and the
# "bench_golden_stdout" digests — so this only watches the speed.
if [ "$bench_name" = "sweep_collapse" ]; then
    "$validator" --compare-rate-warn "$report" \
        "BM_CollapsedVsPerCell/collapsed:1" \
        "BM_CollapsedVsPerCell/collapsed:0" 2.0
fi

echo "PASS: ${bench_name} report parses and carries the required keys"

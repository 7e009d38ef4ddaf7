#!/bin/sh
# End-to-end check of the observability layer's zero-perturbation
# contract: run one deterministic bench twice — obs fully off, then
# fully on (counters + trace export + debug logging) — and require
#
#   1. byte-identical stdout between the two runs,
#   2. a trace file that appears and validates as Perfetto
#      traceEvents JSON (validator --trace mode),
#   3. a BENCH_*.json that validates in both runs, with a "counters"
#      object present only in the obs-on report,
#   4. at least one complete span named each <span-name> given, in
#      that trace.
#
# Usage: check_obs_trace.sh <bench-binary> <validate_bench_json-binary>
#            [span-name...]
#
# Wired in as the "obs_trace_check" ctest (tests/CMakeLists.txt); also
# runnable by hand from a build tree:
#
#   scripts/check_obs_trace.sh build/bench/table5_baselines \
#       build/tools/validate_bench_json
#   scripts/check_obs_trace.sh build/bench/fig5_variability \
#       build/tools/validate_bench_json tapeworm.generate \
#       tapeworm.translate tapeworm.replay

set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <bench-binary> <validator-binary> [span-name...]" >&2
    exit 2
fi

bench="$1"
validator="$2"
shift 2
bench_name=$(basename "$bench")

workdir=$(mktemp -d "${TMPDIR:-/tmp}/ibs_obs_trace.XXXXXX")
trap 'rm -rf "$workdir"' EXIT INT TERM

report="$workdir/BENCH_${bench_name}.json"

# Run 1: observability off (the default environment).
env -u IBS_OBS -u IBS_OBS_TRACE -u IBS_LOG_LEVEL -u IBS_PROGRESS \
    IBS_BENCH_INSTR=20000 IBS_BENCH_JSON_DIR="$workdir" \
    "$bench" > "$workdir/off.txt"
"$validator" "$report"
if grep -q '"counters"' "$report"; then
    echo "FAIL: obs-off report contains a counters section" >&2
    exit 1
fi

# Run 2: everything on — counters, trace export, debug logging.
env -u IBS_PROGRESS \
    IBS_OBS=1 IBS_OBS_TRACE="$workdir/obs_trace.json" \
    IBS_LOG_LEVEL=debug \
    IBS_BENCH_INSTR=20000 IBS_BENCH_JSON_DIR="$workdir" \
    "$bench" > "$workdir/on.txt" 2> "$workdir/on.stderr"

if ! cmp -s "$workdir/off.txt" "$workdir/on.txt"; then
    echo "FAIL: stdout differs between obs-off and obs-on runs" >&2
    diff "$workdir/off.txt" "$workdir/on.txt" >&2 || true
    exit 1
fi

if [ ! -f "$workdir/obs_trace.json" ]; then
    echo "FAIL: IBS_OBS_TRACE did not produce $workdir/obs_trace.json" >&2
    exit 1
fi
if [ "$#" -gt 0 ]; then
    "$validator" --trace-spans "$workdir/obs_trace.json" "$@"
else
    "$validator" --trace "$workdir/obs_trace.json"
fi

"$validator" "$report"
if ! grep -q '"counters"' "$report"; then
    echo "FAIL: obs-on report is missing the counters section" >&2
    exit 1
fi

echo "PASS: ${bench_name} output is obs-invariant and the trace validates"

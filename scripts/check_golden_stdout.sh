#!/bin/sh
# Golden-digest check of bench stdout: run every bench named in a
# committed digest file at a fixed trace length and fail unless the
# sha256 of its stdout equals the committed one. Simulated statistics
# are deterministic (byte-identical across runs and IBS_THREADS
# settings), so any difference is a change in what a bench reports.
# This pins every replay path to a fixed reference rather than to
# another path of the same build.
#
# Usage: check_golden_stdout.sh <instructions> <digest-file> <bench-dir>
#
# The digest file holds one "<sha256>  <bench-name>" line per bench
# (sha256sum's format). Wired in as the ctests (tests/CMakeLists.txt)
# "bench_golden_stdout" with tests/golden/bench_stdout_50k.sha256,
# "fetch_scalar_stdout_diff" with bench_stdout_5k_scalar.sha256 at 5000
# and "fetch_stream_stdout_diff" with bench_stdout_20k_materialized.sha256
# at 20000.
# A digest may only be regenerated for a stated reason (recorded in
# CHANGES.md); from a build tree whose stdout is the new reference:
#
#   for b in $(cut -d' ' -f3 tests/golden/bench_stdout_50k.sha256); do
#       printf '%s  %s\n' "$(IBS_BENCH_INSTR=50000 IBS_BENCH_JSON_DIR=/tmp \
#           build/bench/$b | sha256sum | cut -d' ' -f1)" "$b"
#   done > tests/golden/bench_stdout_50k.sha256

set -eu

if [ "$#" -ne 3 ]; then
    echo "usage: $0 <instructions> <digest-file> <bench-dir>" >&2
    exit 2
fi

instr="$1"
digests="$2"
benchdir="$3"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/ibs_golden.XXXXXX")
trap 'rm -rf "$workdir"' EXIT INT TERM

status=0
checked=0
while read -r want name; do
    [ -n "$name" ] || continue
    checked=$((checked + 1))
    # JSON reports land in the scratch dir so the build tree stays
    # clean; only stdout is pinned (the JSON carries wall-clock
    # timings).
    if ! IBS_BENCH_INSTR="$instr" IBS_BENCH_JSON_DIR="$workdir" \
            "$benchdir/$name" > "$workdir/$name.txt"; then
        echo "FAIL: $name exited non-zero" >&2
        status=1
        continue
    fi
    got=$(sha256sum < "$workdir/$name.txt" | cut -d' ' -f1)
    if [ "$got" = "$want" ]; then
        echo "PASS: $name stdout matches its golden digest" \
             "(IBS_BENCH_INSTR=$instr)"
    else
        echo "FAIL: $name stdout digest $got != golden $want" \
             "(IBS_BENCH_INSTR=$instr); its stdout was:" >&2
        cat "$workdir/$name.txt" >&2
        status=1
    fi
done < "$digests"

if [ "$checked" -eq 0 ]; then
    echo "FAIL: no digests in $digests" >&2
    exit 1
fi
exit $status

#!/bin/sh
# End-to-end check of the sweep server:
#
#   1. bench: run bench/server_bench (in-process server) and validate
#      the BENCH_server.json it writes (schema + cells present);
#   2. serve: start tools/ibs_serve with obs tracing on, drive it
#      with tools/ibs_loadgen (--check: every server-reported latency
#      nests inside the client's clock and the server's latency
#      histogram holds exactly the reported values), scrape the
#      metrics endpoint with tools/ibs_stat and validate the
#      Prometheus exposition text, then SIGINT the server
#      mid-service and require a clean drain — exit status 0 and a
#      trace file that validates as Perfetto traceEvents JSON,
#      including one async request span whose flow steps cross pool
#      threads (the server runs with IBS_THREADS=4 so cells fan out
#      even on a single-core machine).
#
# Usage: check_server.sh <ibs_serve> <ibs_loadgen> <server_bench> \
#            <validate_bench_json> <ibs_stat>
#
# Wired in as the "server_check" ctest (tests/CMakeLists.txt); also
# runnable by hand from a build tree:
#
#   scripts/check_server.sh build/tools/ibs_serve \
#       build/tools/ibs_loadgen build/bench/server_bench \
#       build/tools/validate_bench_json build/tools/ibs_stat

set -eu

if [ "$#" -ne 5 ]; then
    echo "usage: $0 <ibs_serve> <ibs_loadgen> <server_bench>" \
         "<validator> <ibs_stat>" >&2
    exit 2
fi

serve="$1"
loadgen="$2"
bench="$3"
validator="$4"
stat="$5"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/ibs_server.XXXXXX")
# A check that fails while ibs_serve runs must not leave it running.
serve_pid=""
trap '[ -z "$serve_pid" ] || kill -9 "$serve_pid" 2>/dev/null; rm -rf "$workdir"' \
    EXIT INT TERM

# --- 1. The server benchmark writes a valid report. ----------------
env -u IBS_OBS -u IBS_OBS_TRACE -u IBS_PROGRESS \
    IBS_BENCH_INSTR=20000 IBS_BENCH_JSON_DIR="$workdir" \
    "$bench" > "$workdir/bench.txt"
"$validator" "$workdir/BENCH_server.json"
for grid in latency throughput; do
    if ! grep -q "\"$grid\"" "$workdir/BENCH_server.json"; then
        echo "FAIL: BENCH_server.json has no \"$grid\" cells" >&2
        exit 1
    fi
done

# --- 2. The standalone server drains cleanly on SIGINT. ------------
# IBS_THREADS=4: the cross-thread flow check below needs a worker
# pool even when the host reports one core.
env -u IBS_PROGRESS \
    IBS_SERVE_PORT=0 IBS_OBS=1 IBS_THREADS=4 \
    IBS_OBS_TRACE="$workdir/serve_trace.json" \
    "$serve" > "$workdir/serve.out" 2> "$workdir/serve.err" &
serve_pid=$!

# The first stdout line is "LISTENING <port>".
port=""
for _ in $(seq 1 50); do
    port=$(awk '/^LISTENING /{print $2}' "$workdir/serve.out" \
        2>/dev/null || true)
    [ -n "$port" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "FAIL: ibs_serve exited before listening" >&2
        cat "$workdir/serve.err" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "FAIL: ibs_serve never printed its port" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    exit 1
fi

# --check: each done frame's latency_us is at most the client's own
# clock for that request, and the server's sweep-latency histogram
# grew by exactly the reported values. Both hold for sequential and
# concurrent requests alike.
"$loadgen" --port "$port" --connections 1 --requests-per-conn 4 \
    --suite ibs_mach --configs economy,high_performance \
    --workloads gs.mach,nroff.mach --instructions 20000 \
    --check > "$workdir/loadgen.out"

if ! grep -q 'failed=0' "$workdir/loadgen.out"; then
    echo "FAIL: loadgen --check reported failures" >&2
    cat "$workdir/loadgen.out" >&2
    exit 1
fi

# Concurrent load, the shape the SIGINT drain below interrupts.
"$loadgen" --port "$port" --connections 2 --requests-per-conn 2 \
    --suite ibs_mach --configs economy,high_performance \
    --workloads gs.mach,nroff.mach --instructions 20000 \
    --check > "$workdir/loadgen_load.out"

if ! grep -q 'failed=0' "$workdir/loadgen_load.out"; then
    echo "FAIL: loadgen reported failures" >&2
    cat "$workdir/loadgen_load.out" >&2
    exit 1
fi

# The metrics endpoint serves well-formed Prometheus exposition text
# and ibs_stat renders its one-liner from it.
"$stat" --port "$port" --raw > "$workdir/metrics.txt"
"$validator" --prom "$workdir/metrics.txt"
"$stat" --port "$port" --once > "$workdir/stat.out"
if ! grep -q 'req/s' "$workdir/stat.out"; then
    echo "FAIL: ibs_stat printed no req/s line" >&2
    cat "$workdir/stat.out" >&2
    exit 1
fi

# SIGINT while a request is in flight: the drain must finish the
# stream (the backgrounded loadgen sees no failure) and exit 0. A
# fresh, larger instruction budget forces a cold materialization so
# the request is still running when the signal lands.
"$loadgen" --port "$port" --connections 1 --requests-per-conn 1 \
    --suite ibs_mach --configs economy \
    --workloads gs.mach,nroff.mach --instructions 1000000 \
    > "$workdir/loadgen2.out" &
loadgen_pid=$!
sleep 0.1
kill -INT "$serve_pid"

rc=0
wait "$serve_pid" || rc=$?
serve_pid=""
if [ "$rc" -ne 0 ]; then
    echo "FAIL: ibs_serve exited $rc after SIGINT" >&2
    cat "$workdir/serve.err" >&2
    exit 1
fi
lrc=0
wait "$loadgen_pid" || lrc=$?
if [ "$lrc" -ne 0 ]; then
    echo "FAIL: in-flight request was not drained (loadgen $lrc)" >&2
    cat "$workdir/loadgen2.out" >&2
    exit 1
fi

if [ ! -f "$workdir/serve_trace.json" ]; then
    echo "FAIL: ibs_serve wrote no obs trace" >&2
    exit 1
fi
"$validator" --trace "$workdir/serve_trace.json"
# Request spans are async ("b"/"e") with flow steps that must cross
# at least two pool threads for at least one sweep.
"$validator" --trace-flow 2 "$workdir/serve_trace.json"

if ! grep -q 'served' "$workdir/serve.err"; then
    echo "FAIL: ibs_serve summary line missing" >&2
    exit 1
fi

echo "PASS: server bench validates and ibs_serve drains cleanly on SIGINT"

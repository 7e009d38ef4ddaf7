/**
 * @file
 * ibs_serve: the long-running sweep server.
 *
 * Binds 127.0.0.1 on $IBS_SERVE_PORT (0 / unset = ephemeral), prints
 * one `LISTENING <port>` line on stdout so harnesses can find the
 * bound port, then serves until SIGINT/SIGTERM or a client's
 * {"type":"shutdown"}. Shutdown is a drain, not an abort: in-flight
 * requests finish their streams, then the obs trace sink (when
 * IBS_OBS_TRACE is set) is flushed and finalized, and the process
 * exits 0.
 *
 * Knobs: IBS_SERVE_PORT, IBS_SERVE_MAX_INFLIGHT,
 * IBS_SERVE_MEMO_BYTES, IBS_SERVE_MAX_INSTR, plus the usual
 * IBS_THREADS / IBS_OBS / IBS_OBS_TRACE.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <thread>

#include "obs/trace_sink.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onSignal(int)
{
    g_stop = 1;
}

} // namespace

int
main()
{
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    using namespace ibs;
    serve::Server server;
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ibs_serve: %s\n", e.what());
        return 1;
    }
    std::printf("LISTENING %u\n", unsigned{server.port()});
    std::fflush(stdout);

    while (!g_stop && !server.stopping())
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));

    server.requestStop();
    server.wait(); // In-flight requests stream to completion.

    const serve::Server::Counters c = server.counters();
    std::fprintf(stderr,
                 "ibs_serve: served %llu requests (%llu sweeps, "
                 "%llu cells, %llu rejected) over %llu connections\n",
                 static_cast<unsigned long long>(c.requests),
                 static_cast<unsigned long long>(c.sweeps),
                 static_cast<unsigned long long>(c.cells),
                 static_cast<unsigned long long>(c.rejected),
                 static_cast<unsigned long long>(c.connections));

    // Finalize the trace now, while the exit path is still orderly.
    if (obs::TraceEventSink *sink = obs::TraceEventSink::global()) {
        if (!sink->write())
            return 1;
    }
    return 0;
}

/**
 * @file
 * server_bench: throughput and latency of the sweep server.
 *
 * Starts an in-process serve::Server on an ephemeral loopback port
 * and measures the full client→wire→shard→stream round trip:
 *
 *   1. cold vs warm: the same request twice on one connection — the
 *      first materializes the traces (memo miss), the second replays
 *      them (memo hit) and must be faster;
 *   2. cross-check: over the cold, warm and eight warm-probe
 *      requests, each done frame's latency_us must be at most the
 *      client's own clock around that request, and the server's
 *      sweep-latency histogram (the `metrics` request) must hold
 *      exactly those reported values, bucket by bucket — a hard
 *      failure otherwise;
 *   3. throughput: for each concurrency level, N connections each
 *      issue R identical warm requests; requests/s and p50/p99
 *      latency come from the per-request wall times.
 *
 * Results land in BENCH_server.json (schema v2): one cell per
 * latency probe and one per concurrency level, so CI can diff
 * requests/s and tail latency across commits. IBS_BENCH_INSTR
 * scales the per-workload trace length (default here is deliberately
 * small — the subject is the server, not the simulator).
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/prom.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "stats/table.h"

namespace {

using namespace ibs;

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t index = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(index, sorted.size() - 1)];
}

struct LoadResult
{
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint64_t cells = 0;
    double wallSeconds = 0;
    double p50 = 0;
    double p99 = 0;
};

/** N connections × R identical requests against `port`. */
LoadResult
runLoad(uint16_t port, unsigned connections, unsigned requests,
        const std::string &suite,
        const std::vector<std::string> &configs,
        const std::vector<std::string> &workloads,
        uint64_t instructions)
{
    std::mutex mutex;
    std::vector<double> latencies;
    LoadResult out;
    WallTimer run_timer;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < connections; ++t) {
        threads.emplace_back([&] {
            serve::Client client(port);
            for (unsigned r = 0; r < requests; ++r) {
                WallTimer request_timer;
                serve::Client::SweepResult result = client.sweep(
                    suite, configs, workloads, instructions);
                const double seconds = request_timer.seconds();
                std::lock_guard<std::mutex> lock(mutex);
                if (result.ok) {
                    ++out.completed;
                    out.cells += result.cells.size();
                    latencies.push_back(seconds);
                } else {
                    ++out.rejected;
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    out.wallSeconds = run_timer.seconds();
    std::sort(latencies.begin(), latencies.end());
    out.p50 = percentile(latencies, 0.50);
    out.p99 = percentile(latencies, 0.99);
    return out;
}

} // namespace

int
main()
{
    std::signal(SIGPIPE, SIG_IGN);

    BenchReport report("server");
    const uint64_t n = benchInstructions(200000);
    const std::string suite = "ibs_mach";
    const std::vector<std::string> configs = {"economy",
                                              "high_performance"};
    const std::vector<std::string> workloads = {}; // Full suite.

    serve::ServerConfig config = serve::ServerConfig::fromEnv();
    config.port = 0; // Always ephemeral: benches must not collide.
    // Admit every load level below; rejections would skew latency.
    config.maxInflight = 64;
    serve::Server server(config);
    server.start();

    // Every request of the first two phases, as the server reported
    // its latency; the cross-check below holds the histogram to it.
    std::vector<uint64_t> reported;
    uint64_t nesting_violations = 0;
    const auto timed_sweep = [&](serve::Client &client,
                                 double &seconds) {
        WallTimer timer;
        serve::Client::SweepResult result =
            client.sweep(suite, configs, workloads, n);
        seconds = timer.seconds();
        if (result.ok) {
            reported.push_back(result.latencyUs);
            if (result.latencyUs >
                static_cast<uint64_t>(seconds * 1e6))
                ++nesting_violations;
        }
        return result;
    };

    // --- Cold vs warm: the memo is the whole point. -------------
    double cold_seconds = 0, warm_seconds = 0;
    {
        serve::Client client(server.port());
        serve::Client::SweepResult cold =
            timed_sweep(client, cold_seconds);
        serve::Client::SweepResult warm =
            timed_sweep(client, warm_seconds);
        if (!cold.ok || !warm.ok || cold.memoHit || !warm.memoHit) {
            std::fprintf(stderr,
                         "server_bench: memo probe failed "
                         "(cold ok=%d hit=%d, warm ok=%d hit=%d)\n",
                         int(cold.ok), int(cold.memoHit),
                         int(warm.ok), int(warm.memoHit));
            return 1;
        }
        const uint64_t instructions = n * cold.cells.size();
        report.addCell("cold",
                       Json::object().set("memo_hit",
                                          Json::boolean(false)),
                       Json::object()
                           .set("seconds", Json::number(cold_seconds))
                           .set("cells",
                                Json::number(uint64_t{
                                    cold.cells.size()})),
                       cold_seconds, instructions, "latency");
        report.addCell("warm",
                       Json::object().set("memo_hit",
                                          Json::boolean(true)),
                       Json::object()
                           .set("seconds", Json::number(warm_seconds))
                           .set("cells",
                                Json::number(uint64_t{
                                    warm.cells.size()})),
                       warm_seconds, instructions, "latency");
    }

    // --- Cross-check: server histogram vs reported latencies. ---
    // Eight more warm probes, then the histogram must hold exactly
    // the latency_us of these ten requests — nothing else has swept
    // this server yet — and each must nest in the client's clock.
    {
        serve::Client client(server.port());
        for (int i = 0; i < 8; ++i) {
            double seconds = 0;
            if (!timed_sweep(client, seconds).ok) {
                std::fprintf(stderr,
                             "server_bench: warm probe failed\n");
                return 1;
            }
        }
        WallTimer scrape_timer;
        obs::PromHistogram latency;
        std::string error;
        if (!obs::parsePromHistogram(client.metricsText(),
                                     "ibs_serve_sweep_latency_us",
                                     latency))
            error = "metrics carry no ibs_serve_sweep_latency_us "
                    "histogram";
        else
            obs::promHistogramHolds(latency, reported, error);
        const bool agree = error.empty() && nesting_violations == 0;
        std::printf("cross-check: %zu server latencies, %llu above "
                    "the client clock, histogram %s\n",
                    reported.size(),
                    static_cast<unsigned long long>(
                        nesting_violations),
                    error.empty() ? "exact" : "DIVERGES");
        report.addCell(
            "cross_check",
            Json::object().set("source",
                               Json::string("metrics_endpoint")),
            Json::object()
                .set("requests", Json::number(uint64_t{
                                     reported.size()}))
                .set("nesting_violations",
                     Json::number(nesting_violations))
                .set("server_histogram_count",
                     Json::number(latency.count))
                .set("agree", Json::boolean(agree)),
            scrape_timer.seconds(), 0, "metrics");
        if (!agree) {
            std::fprintf(stderr,
                         "server_bench: server sweep latencies "
                         "disagree with the client: %llu exceed the "
                         "client clock; %s\n",
                         static_cast<unsigned long long>(
                             nesting_violations),
                         error.empty() ? "histogram exact"
                                       : error.c_str());
            return 1;
        }
    }

    // --- Throughput at two (or more) concurrency levels. --------
    const std::vector<unsigned> levels = {1, 4};
    const unsigned requests_per_conn = 4;
    TextTable table("Sweep server throughput (warm memo)");
    table.setHeader({"connections", "req/s", "p50 (ms)", "p99 (ms)",
                     "rejected"});
    for (unsigned level : levels) {
        const LoadResult load =
            runLoad(server.port(), level, requests_per_conn, suite,
                    configs, workloads, n);
        const double rps =
            load.wallSeconds > 0
                ? static_cast<double>(load.completed) /
                      load.wallSeconds
                : 0;
        table.addRow({std::to_string(level), TextTable::num(rps, 2),
                      TextTable::num(load.p50 * 1e3, 2),
                      TextTable::num(load.p99 * 1e3, 2),
                      std::to_string(load.rejected)});
        report.addCell(
            "mixed",
            Json::object().set("connections",
                               Json::number(uint64_t{level})),
            Json::object()
                .set("requests", Json::number(load.completed))
                .set("rejected", Json::number(load.rejected))
                .set("requests_per_second", Json::number(rps))
                .set("p50_seconds", Json::number(load.p50))
                .set("p99_seconds", Json::number(load.p99)),
            load.wallSeconds, n * load.cells, "throughput",
            "conns_" + std::to_string(level));
    }
    std::printf("%s", table.render().c_str());
    std::printf("\ncold=%.3fs warm=%.3fs (warm speedup %.1fx)\n",
                cold_seconds, warm_seconds,
                warm_seconds > 0 ? cold_seconds / warm_seconds : 0);

    const serve::Server::Counters counters = server.counters();
    server.requestStop();
    server.wait();

    report.meta()
        .set("instructions_per_workload", Json::number(n))
        .set("server_sweeps", Json::number(counters.sweeps))
        .set("server_cells", Json::number(counters.cells))
        .set("memo_warm_faster",
             Json::boolean(warm_seconds < cold_seconds));
    report.write();
    return 0;
}

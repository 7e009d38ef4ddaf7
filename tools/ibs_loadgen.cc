/**
 * @file
 * ibs_loadgen: load-generator client for ibs_serve.
 *
 * Opens N concurrent connections to a running server and drives each
 * with a stream of sweep requests, then prints aggregate throughput
 * and latency percentiles. This is the command-line face of the
 * serve::Client; bench/server_bench wraps the same loop to produce
 * BENCH_server.json.
 *
 * Usage:
 *   ibs_loadgen --port P [--connections N] [--requests-per-conn R]
 *               [--suite ibs_mach] [--configs a,b,c]
 *               [--workloads x,y] [--instructions K]
 *               [--check] [--shutdown]
 *
 * Every connection issues the same request R times (after the first
 * completion the server's memo is warm, so the mix measures warm
 * latency with one cold outlier per distinct key). --shutdown sends a
 * shutdown request after the load completes.
 *
 * Under --check, every request is cross-checked against the server's
 * own view of it, exactly:
 *
 *   - the done frame's latency_us is at most this client's clock
 *     around the same request (the server interval nests inside the
 *     client's on one steady clock);
 *   - the server's sweep-latency histogram (ibs_serve_sweep_latency_us
 *     from the `metrics` request, less a scrape taken before the
 *     load) holds exactly the reported latency_us values, bucketized
 *     with log2BucketUpperEdge.
 *
 * Either failing is a hard failure naming the request or bucket. The
 * histogram check assumes no other client sweeps the server during
 * the run.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/prom.h"
#include "serve/client.h"
#include "stats/report.h"

namespace {

using namespace ibs;

struct Options
{
    uint16_t port = 0;
    unsigned connections = 2;
    unsigned requestsPerConn = 4;
    std::string suite = "ibs_mach";
    std::vector<std::string> configs = {"economy",
                                        "high_performance"};
    std::vector<std::string> workloads; ///< Empty = full suite.
    uint64_t instructions = 200000;
    bool shutdown = false;
    bool check = false; ///< Cross-check server latencies exactly.
};

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size()
                                                      : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --port P [--connections N] "
        "[--requests-per-conn R] [--suite S] [--configs a,b] "
        "[--workloads x,y] [--instructions K] [--check] "
        "[--shutdown]\n",
        argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--port")
            opt.port = static_cast<uint16_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (arg == "--connections")
            opt.connections = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (arg == "--requests-per-conn")
            opt.requestsPerConn = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (arg == "--suite")
            opt.suite = value();
        else if (arg == "--configs")
            opt.configs = splitCommas(value());
        else if (arg == "--workloads")
            opt.workloads = splitCommas(value());
        else if (arg == "--instructions")
            opt.instructions = std::strtoull(value().c_str(),
                                             nullptr, 10);
        else if (arg == "--shutdown")
            opt.shutdown = true;
        else if (arg == "--check")
            opt.check = true;
        else
            usage(argv[0]);
    }
    if (opt.port == 0 || opt.connections == 0 ||
        opt.requestsPerConn == 0)
        usage(argv[0]);
    return opt;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t index = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(index, sorted.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    const Options opt = parseArgs(argc, argv);

    // The server histogram before the load, so --check compares
    // only the observations this run adds.
    obs::PromHistogram before;
    bool have_before = false;
    if (opt.check) {
        try {
            serve::Client client(opt.port);
            have_before = obs::parsePromHistogram(
                client.metricsText(), "ibs_serve_sweep_latency_us",
                before);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "loadgen: metrics scrape failed: %s\n",
                         e.what());
            return 1;
        }
    }

    std::mutex mutex;
    std::vector<double> latencies; ///< Seconds, one per request.
    std::vector<uint64_t> reported; ///< Server latency_us, same order.
    uint64_t completed = 0, rejected = 0, failed = 0, cells = 0;
    uint64_t nesting_violations = 0;

    WallTimer run_timer;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < opt.connections; ++t) {
        threads.emplace_back([&] {
            try {
                serve::Client client(opt.port);
                for (unsigned r = 0; r < opt.requestsPerConn; ++r) {
                    WallTimer request_timer;
                    serve::Client::SweepResult result =
                        client.sweep(opt.suite, opt.configs,
                                     opt.workloads,
                                     opt.instructions);
                    const double seconds = request_timer.seconds();
                    const uint64_t client_us =
                        static_cast<uint64_t>(seconds * 1e6);
                    std::lock_guard<std::mutex> lock(mutex);
                    if (result.ok) {
                        ++completed;
                        cells += result.cells.size();
                        latencies.push_back(seconds);
                        reported.push_back(result.latencyUs);
                        if (result.latencyUs > client_us) {
                            ++nesting_violations;
                            std::fprintf(
                                stderr,
                                "loadgen: server latency_us=%llu "
                                "exceeds the client's %llu us for "
                                "the same request\n",
                                static_cast<unsigned long long>(
                                    result.latencyUs),
                                static_cast<unsigned long long>(
                                    client_us));
                        }
                    } else if (result.errorCode == 429) {
                        ++rejected;
                    } else {
                        ++failed;
                        std::fprintf(stderr,
                                     "loadgen: request failed "
                                     "(%d): %s\n",
                                     result.errorCode,
                                     result.errorMessage.c_str());
                    }
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mutex);
                ++failed;
                std::fprintf(stderr, "loadgen: %s\n", e.what());
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    const double wall = run_timer.seconds();

    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 0.50);
    const double p99 = percentile(latencies, 0.99);
    std::printf("connections=%u requests=%llu rejected=%llu "
                "failed=%llu cells=%llu\n",
                opt.connections,
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(cells));
    std::printf("wall_seconds=%.3f requests_per_second=%.2f "
                "p50_seconds=%.4f p99_seconds=%.4f\n",
                wall,
                wall > 0 ? static_cast<double>(completed) / wall : 0,
                p50, p99);

    bool check_ok = nesting_violations == 0;
    if (opt.check && completed > 0) {
        try {
            serve::Client client(opt.port);
            obs::PromHistogram after;
            std::string error;
            if (!obs::parsePromHistogram(client.metricsText(),
                                         "ibs_serve_sweep_latency_us",
                                         after))
                error = "server metrics carry no "
                        "ibs_serve_sweep_latency_us histogram";
            else if (obs::promHistogramHolds(
                         after, reported, error,
                         have_before ? &before : nullptr))
                std::printf("check: the server histogram holds "
                            "exactly the %llu reported latencies\n",
                            static_cast<unsigned long long>(
                                reported.size()));
            if (!error.empty()) {
                check_ok = false;
                std::fprintf(stderr,
                             "loadgen: server sweep-latency histogram "
                             "disagrees with the reported latencies: "
                             "%s\n",
                             error.c_str());
            }
        } catch (const std::exception &e) {
            check_ok = false;
            std::fprintf(stderr, "loadgen: metrics scrape failed: %s\n",
                         e.what());
        }
    }

    if (opt.shutdown) {
        try {
            serve::Client client(opt.port);
            client.shutdown();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "loadgen: shutdown: %s\n",
                         e.what());
        }
    }
    if (failed != 0)
        return 1;
    return opt.check && !check_ok ? 1 : 0;
}

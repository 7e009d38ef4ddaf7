/**
 * @file
 * Runner implementations.
 */

#include "sim/runner.h"

#include <cerrno>
#include <cstdlib>

#include "obs/log.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "workload/run_stream.h"

namespace ibs {

uint64_t
parseEnvCount(const char *name, uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return fallback;
    // strtoull silently accepts trailing garbage, wraps negative
    // input, and saturates on overflow with no error by default —
    // reject all three explicitly so a typo'd environment variable
    // cannot silently run the wrong experiment.
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || env[0] == '-' ||
        errno == ERANGE || v == 0) {
        obs::log(obs::LogLevel::Warn,
                 "ignoring invalid %s=\"%s\" (want a positive "
                 "integer); using %llu",
                 name, env,
                 static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return v;
}

uint64_t
benchInstructions(uint64_t fallback)
{
    return parseEnvCount("IBS_BENCH_INSTR", fallback);
}

SuiteTraces::SuiteTraces(const std::vector<WorkloadSpec> &suite,
                         uint64_t instructions_per_workload)
    : requested_(instructions_per_workload), specs_(suite)
{
    names_.reserve(suite.size());
    for (const WorkloadSpec &spec : suite)
        names_.push_back(spec.name);
}

const RunTrace &
SuiteTraces::runTrace(size_t i, uint32_t line_bytes) const
{
    RunEntry *entry;
    {
        std::lock_guard<std::mutex> lock(runTraceMutex_);
        std::unique_ptr<RunEntry> &slot =
            runTraces_[{i, line_bytes}];
        if (!slot)
            slot = std::make_unique<RunEntry>();
        entry = slot.get();
    }
    // Generation runs outside the map lock; concurrent callers for
    // the same key rendezvous on the entry's once_flag, callers for
    // other keys proceed independently.
    std::call_once(entry->once, [&] {
        obs::ScopedTimer timer("stream " + names_[i] + " line" +
                                   std::to_string(line_bytes),
                               "run_trace");
        WorkloadModel model(specs_[i]);
        entry->trace = generateRunTrace(model, line_bytes, requested_);
        if (entry->trace.instructions < requested_) {
            obs::logOnce(
                obs::LogLevel::Warn, "short-trace:" + names_[i],
                "workload %s drained after %llu of %llu "
                "instructions; its trace is short",
                names_[i].c_str(),
                static_cast<unsigned long long>(
                    entry->trace.instructions),
                static_cast<unsigned long long>(requested_));
        }
        entry->built.store(true, std::memory_order_release);
    });
    return entry->trace;
}

uint64_t
SuiteTraces::retainedTraceBytes() const
{
    uint64_t bytes = 0;
    {
        std::lock_guard<std::mutex> lock(runTraceMutex_);
        for (const auto &kv : runTraces_) {
            const RunEntry &entry = *kv.second;
            if (entry.built.load(std::memory_order_acquire))
                bytes += entry.trace.bytes();
        }
    }
    std::lock_guard<std::mutex> lock(missStreamMutex_);
    for (const auto &kv : missStreams_) {
        const MissEntry &entry = *kv.second;
        if (entry.built.load(std::memory_order_acquire))
            bytes += entry.stream.bytes();
    }
    return bytes;
}

const MissStream &
SuiteTraces::missStream(size_t i, const FetchConfig &config) const
{
    // The capture depends only on the L1 side of the config (the
    // perfect L2 never feeds back). CacheConfig::toString omits the
    // replacement policy, which does change the miss stream — spell
    // the key out field by field.
    std::string key = std::to_string(config.l1.sizeBytes) + "/" +
        std::to_string(config.l1.assoc) + "/" +
        std::to_string(config.l1.lineBytes) + "/" +
        replacementName(config.l1.replacement) + "|" +
        std::to_string(config.l1Fill.latencyCycles) + ":" +
        std::to_string(config.l1Fill.bytesPerCycle);

    MissEntry *entry;
    {
        std::lock_guard<std::mutex> lock(missStreamMutex_);
        std::unique_ptr<MissEntry> &slot =
            missStreams_[{i, std::move(key)}];
        if (!slot)
            slot = std::make_unique<MissEntry>();
        entry = slot.get();
    }
    std::call_once(entry->once, [&] {
        obs::ScopedTimer timer("capture " + names_[i] + " " +
                                   config.l1.toString(),
                               "collapse");
        FetchConfig capture = config;
        capture.perfectL2 = true;
        FetchEngine engine(capture);
        MissStream &ms = entry->stream;
        ms.trace.lineBytes = capture.l1.lineBytes;
        engine.setMissCapture(&ms.trace);
        const RunTrace &runs = runTrace(i, capture.l1.lineBytes);
        for (const FetchRun &run : runs.runs)
            engine.fetchRun(run);
        ms.runsReplayed = runs.runs.size();
        engine.setMissCapture(nullptr);
        ms.trace.runs.shrink_to_fit();
        ms.l1Stats = engine.stats();
        ms.l1Accesses = engine.l1Cache().accesses();
        ms.l1Hits = engine.l1Cache().hits();
        ms.l1Evictions = engine.l1Cache().evictions();
        ms.batchedRuns = engine.batchedRuns();
        ms.batchFallbacks = engine.batchFallbacks();
        entry->built.store(true, std::memory_order_release);
    });
    return entry->stream;
}

size_t
SuiteTraces::missStreamsBuilt() const
{
    std::lock_guard<std::mutex> lock(missStreamMutex_);
    return missStreams_.size();
}

size_t
SuiteTraces::runTracesBuilt() const
{
    std::lock_guard<std::mutex> lock(runTraceMutex_);
    return runTraces_.size();
}

FetchStats
SuiteTraces::runOne(size_t i, const FetchConfig &config) const
{
    FetchEngine engine(config);
    const RunTrace &runs = runTrace(i, config.l1.lineBytes);
    for (const FetchRun &run : runs.runs)
        engine.fetchRun(run);
    engine.noteStreamRuns(runs.runs.size());
    if (obs::Registry::global().enabled()) {
        // Published per replay, not per run-trace build: the memo
        // makes builds happen once per (workload, lineBytes), which
        // would leave warm sweeps without the counter and break
        // thread-count invariance of the snapshot.
        obs::Registry::global().add("workload.model.runs_emitted",
                                    runs.runs.size());
        engine.publishCounters(obs::Registry::global());
        // Scheduling-independent histogram sample: one observation
        // per replayed cell, so the merged histogram is bit-identical
        // across IBS_THREADS like the counters above.
        obs::Registry::global().observe("sim.cell.instructions",
                                        engine.stats().instructions);
    }
    return engine.stats();
}

FetchStats
SuiteTraces::runSuite(const FetchConfig &config) const
{
    FetchStats total;
    for (size_t i = 0; i < count(); ++i)
        total.merge(runOne(i, config));
    return total;
}

} // namespace ibs

/**
 * @file
 * Experiment runners: glue between workloads, engines and benches.
 *
 * SuiteTraces generates each workload's instruction stream once
 * (the expensive part) and then replays it under many fetch
 * configurations — the pattern every parameter-sweep bench uses.
 * Suite-average statistics weight every workload equally, as the
 * paper's suite averages do.
 */

#ifndef IBS_SIM_RUNNER_H
#define IBS_SIM_RUNNER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/fetch_config.h"
#include "core/fetch_engine.h"
#include "trace/miss_trace.h"
#include "trace/run_trace.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace ibs {

/**
 * Captured result of running one workload through an L1 front end
 * backed by a perfect L2: the run-encoded L1-refill reference stream
 * plus everything needed to derive a full per-cell result for any
 * L2 variant sharing that front end (sim/collapse.h). The stored
 * counters mirror exactly what FetchEngine::publishCounters would
 * have published for the L1 side, so derived cells can synthesize a
 * registry publication bit-identical to the per-cell path's.
 */
struct MissStream
{
    MissTrace trace;   ///< Ordered L1-miss line addresses.
    FetchStats l1Stats; ///< Capture-run stats (perfect-L2 totals).
    uint64_t l1Accesses = 0; ///< L1 cache counters of the capture run.
    uint64_t l1Hits = 0;
    uint64_t l1Evictions = 0;
    uint64_t batchedRuns = 0;    ///< fetchRun path counters; L1-only
    uint64_t batchFallbacks = 0; ///< decisions, so variant-invariant.
    uint64_t runsReplayed = 0;   ///< Runs fed to the capture engine.

    /** Retained heap bytes (what serve/memo.h charges). */
    uint64_t
    bytes() const
    {
        return sizeof(MissStream) + trace.bytes();
    }
};

/**
 * Parse a positive integer from environment variable `name`.
 * Malformed values (trailing garbage, sign, overflow, zero) are
 * rejected with a warning on stderr and `fallback` is returned.
 */
uint64_t parseEnvCount(const char *name, uint64_t fallback);

/** Instructions per workload used by benches unless overridden by
 *  the IBS_BENCH_INSTR environment variable. */
uint64_t benchInstructions(uint64_t fallback = 1'500'000);

/**
 * Instruction traces for a suite of workloads, held run-compressed.
 *
 * Generation is *streaming* (workload/run_stream.h): the run-length
 * trace each sweep cell replays is generated straight from the
 * workload model, memoized per (workload, lineBytes), and the flat
 * address vector — 8 bytes per instruction, the dominant memory cost
 * and an extra encode pass — is built only for callers that ask for
 * it through addresses().
 *
 * Replay drives FetchEngine::fetchRun over the workload's RunTrace
 * (trace/run_trace.h) rather than calling fetch() per instruction.
 * Because the encoding depends only on the L1 line size, the
 * compressed trace is shared read-only by every sweep cell with that
 * line size. Simulated statistics are bit-identical to the
 * per-instruction FetchEngine::fetch loop, which stays the oracle of
 * tests/fetch_batch_diff_test.cc.
 *
 * Thread-safety: flat traces and run-trace memo entries are each
 * built exactly once behind a std::once_flag, lazily on first use,
 * and are immutable afterwards, so any number of threads may call
 * the const members (runOne, runSuite, addresses, runTrace, ...)
 * concurrently on one shared instance. sim/sweep.h relies on this to
 * fan a config grid out across workers.
 */
class SuiteTraces
{
  public:
    /**
     * @param suite workload specs (instruction streams only)
     * @param instructions_per_workload trace length for each
     */
    SuiteTraces(const std::vector<WorkloadSpec> &suite,
                uint64_t instructions_per_workload);

    size_t count() const { return specs_.size(); }
    const std::string &name(size_t i) const { return names_[i]; }

    /**
     * Instruction addresses of workload `i`. The flat vector is not
     * built at construction; the first caller pays the
     * materialization (callers that only replay through
     * runOne/runTrace never do). The returned reference stays valid
     * for the lifetime of this SuiteTraces.
     */
    const std::vector<uint64_t> &addresses(size_t i) const;

    /**
     * Bytes of trace data currently retained: flat address vectors
     * actually built plus finished run-trace memo entries plus
     * captured miss streams (missStream). This is what a
     * byte-budgeted store (serve/memo.h) charges for the suite;
     * until a caller asks for addresses() it is the compressed
     * footprint alone, typically several times smaller than the
     * flat traces.
     */
    uint64_t retainedTraceBytes() const;

    /**
     * Run-length encoding of workload `i` at `line_bytes` (lazy,
     * built once, then shared read-only across callers — see the
     * class comment). The returned reference stays valid for the
     * lifetime of this SuiteTraces.
     */
    const RunTrace &runTrace(size_t i, uint32_t line_bytes) const;

    /** Number of distinct (workload, lineBytes) run-traces built so
     *  far (diagnostics: how well the memo amortizes). */
    size_t runTracesBuilt() const;

    /**
     * Miss stream of workload `i` under `config`'s L1 front end:
     * the capture run replays the workload through a FetchEngine
     * with perfectL2 forced on (L1-only, so one capture serves every
     * L2 variant) and records each L1 miss's line address
     * (trace/miss_trace.h). Memoized per (workload, L1 geometry +
     * L1 fill timing) with the same build-exactly-once discipline as
     * runTrace — warm server sweeps skip the L1 run entirely — and
     * charged by retainedTraceBytes() so serve/memo.h budgets it.
     * Only sim/collapse.h should need this. The returned reference
     * stays valid for the lifetime of this SuiteTraces.
     */
    const MissStream &missStream(size_t i,
                                 const FetchConfig &config) const;

    /** Number of distinct miss streams captured so far. */
    size_t missStreamsBuilt() const;

    /** Run one workload's trace through a configuration. */
    FetchStats runOne(size_t i, const FetchConfig &config) const;

    /** Run the whole suite and merge (equal-weight average). */
    FetchStats runSuite(const FetchConfig &config) const;

  private:
    /** Memo slot: call_once gives build-exactly-once semantics
     *  without holding the map mutex during compression. `built`
     *  lets byte accounting skip entries still under construction. */
    struct RunEntry
    {
        std::once_flag once;
        std::atomic<bool> built{false};
        RunTrace trace;
    };

    /** Miss-stream memo slot; same discipline as RunEntry. */
    struct MissEntry
    {
        std::once_flag once;
        std::atomic<bool> built{false};
        MissStream stream;
    };

    /** Lazy flat-trace slot (built on the first addresses() call). */
    struct FlatSlot
    {
        std::once_flag once;
        std::atomic<bool> built{false};
    };

    bool flatBuilt(size_t i) const
    {
        return flatSlots_[i]->built.load(std::memory_order_acquire);
    }

    /** Generate the flat trace of workload `i` (call_once body;
     *  writes traces_[i]). */
    void materializeFlat(size_t i) const;

    uint64_t requested_ = 0;
    std::vector<WorkloadSpec> specs_;
    std::vector<std::string> names_;
    // Filled lazily; mutable with per-slot once_flags so const
    // accessors can materialize on first use.
    mutable std::vector<std::vector<uint64_t>> traces_;
    mutable std::vector<std::unique_ptr<FlatSlot>> flatSlots_;

    // (workload, lineBytes) -> lazily built run trace. unique_ptr
    // keeps entry addresses stable across map rebalancing, so the
    // mutex only guards the map itself, never a build in progress.
    mutable std::mutex runTraceMutex_;
    mutable std::map<std::pair<size_t, uint32_t>,
                     std::unique_ptr<RunEntry>>
        runTraces_;

    // (workload, L1-side key) -> lazily captured miss stream; same
    // stable-address + once_flag discipline as runTraces_.
    mutable std::mutex missStreamMutex_;
    mutable std::map<std::pair<size_t, std::string>,
                     std::unique_ptr<MissEntry>>
        missStreams_;
};

} // namespace ibs

#endif // IBS_SIM_RUNNER_H

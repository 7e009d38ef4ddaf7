/**
 * @file
 * Warm-state store of the sweep server: a byte-budgeted LRU of
 * SuiteTraces.
 *
 * Generating a suite's traces (the workload random walk) dominates a
 * request's cost; replay through a FetchEngine is cheap. The server
 * therefore keys each distinct
 * (suite, workload subset, instruction count) on its first request
 * and hands every later request the same immutable SuiteTraces —
 * including the run-length compressed replay memos it accumulates —
 * so a warm request pays only the replay.
 *
 * Entries are shared_ptr<const SuiteTraces>: eviction drops the
 * store's reference while any in-flight request keeps its own, so
 * trimming the budget can never pull a trace out from under a
 * running sweep. Concurrent first requests for one key rendezvous on
 * a shared_future and build exactly once; a failed build is erased
 * so the next request retries instead of caching the error.
 */

#ifndef IBS_SERVE_MEMO_H
#define IBS_SERVE_MEMO_H

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/runner.h"

namespace ibs::serve {

/** Keyed LRU of shared immutable trace suites under a byte budget. */
class TraceMemo
{
  public:
    /** @param byte_budget approximate retained-trace bytes; at least
     *         one entry is always kept regardless */
    explicit TraceMemo(uint64_t byte_budget);

    /** Occupancy and effectiveness counters. */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t bytes = 0;
        uint64_t entries = 0;
    };

    /**
     * The suite for `key`, building it with `build` on first use.
     * Blocks while another thread is building the same key (that
     * still counts as a hit: the work is shared). Rethrows the
     * builder's exception to every waiter and forgets the entry.
     *
     * @param was_hit set to whether the entry already existed
     */
    std::shared_ptr<const SuiteTraces>
    get(const std::string &key,
        const std::function<std::shared_ptr<const SuiteTraces>()>
            &build,
        bool *was_hit = nullptr);

    Stats stats() const;

    uint64_t budgetBytes() const { return budget_; }

    /**
     * Re-measure `key`'s entry against the suite's current retained
     * bytes and evict if the growth pushed the store over budget.
     * A suite's run-trace memos — and the L1 miss streams the sweep
     * collapser retains (sim/collapse.h) — accrue *after* its build
     * finishes, lazily, as sweep cells request new line sizes or
     * collapse groups capture their shared front end; in streaming
     * mode they are the entire footprint, so the server calls this
     * after each sweep to keep the budget honest. No-op for unknown
     * (evicted) keys or entries still building.
     */
    void refresh(const std::string &key, const SuiteTraces &suite);

    /** Approximate retained bytes of one suite: flat traces built
     *  plus finished run-trace memos and collapse miss streams
     *  (SuiteTraces::retainedTraceBytes) and fixed per-workload
     *  overhead. */
    static uint64_t suiteBytes(const SuiteTraces &suite);

  private:
    void evictOverBudgetLocked();

    struct Entry
    {
        std::shared_future<std::shared_ptr<const SuiteTraces>> future;
        uint64_t bytes = 0; ///< 0 until the build finishes.
        std::list<std::string>::iterator lru;
    };

    const uint64_t budget_;
    mutable std::mutex mutex_;
    std::list<std::string> lru_; ///< Front = most recently used.
    std::map<std::string, Entry> entries_;
    uint64_t bytes_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace ibs::serve

#endif // IBS_SERVE_MEMO_H

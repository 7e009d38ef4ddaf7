/**
 * @file
 * Parallel parameter-sweep executor.
 *
 * Every table/figure bench replays the same immutable SuiteTraces
 * through a grid of FetchConfigs. Each (config, workload) cell is an
 * independent simulation — a FetchEngine built fresh from the config
 * and driven by one shared, immutable run trace — so the grid
 * parallelizes perfectly. runSweep schedules cells onto a pool of
 * std::thread workers and stores each cell's FetchStats into a
 * pre-sized vector addressed by (config, workload) index; because no
 * cell reads another cell's output and the merge in
 * SweepResult::suite always folds workloads in index order, the
 * result is bit-for-bit identical to the serial path regardless of
 * how the scheduler interleaves the work. The sweep server runs each
 * request through runSweep as well, streaming cells from its sink.
 *
 * Worker count: the `threads` argument if nonzero, else the
 * IBS_THREADS environment variable, else std::thread's hardware
 * concurrency. One thread means the calling thread runs every cell
 * itself (serial fallback, no pool).
 */

#ifndef IBS_SIM_SWEEP_H
#define IBS_SIM_SWEEP_H

#include <cstddef>
#include <functional>
#include <vector>

#include "core/fetch_config.h"
#include "core/fetch_stats.h"
#include "sim/runner.h"

namespace ibs {

/**
 * Worker count for parallel sweeps: IBS_THREADS if set and valid,
 * else hardware concurrency, always at least 1.
 */
unsigned sweepThreads();

/**
 * Wall-clock cost of one sweep cell, recorded by runSweep for the
 * machine-readable bench reports. Timing is kept outside FetchStats:
 * the simulated counters are bit-identical across thread counts and
 * runs, the wall-clock numbers are not.
 */
struct CellTiming
{
    double wallSeconds = 0.0;  ///< Simulation time of this cell.
    uint64_t instructions = 0; ///< Instructions the cell simulated.
    /** Cell derived from a group leader's shared miss stream
     *  (sim/collapse.h) rather than simulated in full. Leaders and
     *  per-cell fallbacks report false. Surfaced as "collapsed" in
     *  the schema-v2 bench reports. */
    bool collapsed = false;

    /** Sweep throughput (0 when the cell ran too fast to time). */
    double
    instructionsPerSecond() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(instructions) / wallSeconds
            : 0.0;
    }
};

/** Per-cell results of a (config × workload) sweep. */
class SweepResult
{
  public:
    SweepResult(size_t configs, size_t workloads)
        : workloads_(workloads), cells_(configs * workloads),
          timings_(configs * workloads)
    {}

    size_t configCount() const
    {
        return workloads_ ? cells_.size() / workloads_ : 0;
    }
    size_t workloadCount() const { return workloads_; }

    /** Stats of one (config, workload) cell. */
    const FetchStats &
    cell(size_t config, size_t workload) const
    {
        return cells_[config * workloads_ + workload];
    }

    FetchStats &
    cell(size_t config, size_t workload)
    {
        return cells_[config * workloads_ + workload];
    }

    /** Wall-clock timing of one (config, workload) cell. */
    const CellTiming &
    timing(size_t config, size_t workload) const
    {
        return timings_[config * workloads_ + workload];
    }

    CellTiming &
    timing(size_t config, size_t workload)
    {
        return timings_[config * workloads_ + workload];
    }

    /** Sum of per-cell wall-clock (CPU-seconds of simulation, not
     *  elapsed time when the sweep ran on several workers). */
    double
    totalCellSeconds() const
    {
        double total = 0.0;
        for (const CellTiming &t : timings_)
            total += t.wallSeconds;
        return total;
    }

    /**
     * Suite-level stats for one config: cells merged in workload
     * index order, exactly matching SuiteTraces::runSuite.
     * FetchStats::merge is pure counter addition, so the merge is
     * order-independent; fixing the order anyway makes the
     * determinism contract trivially auditable.
     */
    FetchStats
    suite(size_t config) const
    {
        FetchStats total;
        for (size_t w = 0; w < workloads_; ++w)
            total.merge(cell(config, w));
        return total;
    }

  private:
    size_t workloads_;
    std::vector<FetchStats> cells_;   ///< Config-major.
    std::vector<CellTiming> timings_; ///< Config-major, same index.
};

/**
 * Per-cell callback of runSweep: grid index, workload index, and the
 * cell's final stats and timing (the same objects the SweepResult
 * holds). Called on the worker thread that computed the cell.
 */
using CellSink = std::function<void(size_t config, size_t workload,
                                    const FetchStats &stats,
                                    const CellTiming &timing)>;

/**
 * Run every (config × workload) cell of the grid, in parallel when
 * more than one worker is available.
 *
 * Cells whose configs differ only in L2 geometry are collapsed onto
 * a shared L1 capture run plus per-variant replay of its miss stream
 * (sim/collapse.h) — one pool task per (group, workload), with the
 * leader's capture and the dependent derivations sequenced inside
 * the task, so the producer/consumer dependency never crosses
 * workers. Per-cell stats stay bit-identical to runOne. Publishes
 * sim.sweep.{groups,collapsed_cells,fallback_cells} when the obs
 * registry is enabled.
 *
 * `sink`, when set, sees each cell as soon as its slot is final —
 * how the sweep server streams cells while the sweep still runs. A
 * collapsed group reports its members in member order. The first
 * exception a sink throws drains the loop and is rethrown here.
 *
 * @param suite immutable traces, shared const across workers
 * @param configs grid points (validated before any thread starts)
 * @param threads worker count; 0 means sweepThreads()
 * @param sink optional per-cell callback, called concurrently
 * @return per-cell stats, identical to calling runOne serially
 */
SweepResult runSweep(const SuiteTraces &suite,
                     const std::vector<FetchConfig> &configs,
                     unsigned threads = 0, const CellSink &sink = {});

} // namespace ibs

#endif // IBS_SIM_SWEEP_H

/**
 * @file
 * Parallel sweep executor implementation.
 */

#include "sim/sweep.h"

#include <string>
#include <thread>

#include "obs/progress.h"
#include "obs/timer.h"
#include "sim/collapse.h"
#include "sim/parallel.h"

namespace ibs {

unsigned
sweepThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const uint64_t n = parseEnvCount("IBS_THREADS", hw ? hw : 1);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

SweepResult
runSweep(const SuiteTraces &suite, const std::vector<FetchConfig> &configs,
         unsigned threads, const CellSink &sink)
{
    // Fail fast, on the calling thread, before any work is scheduled.
    for (const FetchConfig &config : configs)
        config.validate();

    const size_t workloads = suite.count();
    const size_t total = configs.size() * workloads;
    SweepResult result(configs.size(), workloads);
    if (total == 0)
        return result;

    if (threads == 0)
        threads = sweepThreads();

    // Collapse configs that share an L1 front end (sim/collapse.h);
    // the rest run per cell.
    const CollapsePlan plan = planCollapse(configs);
    publishCollapsePlan(plan, workloads);

    obs::SweepProgress progress("sweep", total);

    // Task space: one item per (single config, workload) cell plus
    // one per (group, workload) — a group's capture and derivations
    // run inside one task, so no task depends on another. Each task
    // writes only its own pre-sized result slots, so the shared pool
    // needs no synchronization on the results (see sim/parallel.h
    // for the scheduling and determinism contract).
    const size_t single_tasks = plan.singles.size() * workloads;
    const size_t group_tasks = plan.groups.size() * workloads;
    parallelFor(single_tasks + group_tasks, threads, [&](size_t i) {
        if (i < single_tasks) {
            const size_t c = plan.singles[i / workloads];
            const size_t w = i % workloads;
            obs::ScopedTimer timer(
                "cell " + std::to_string(c) + ":" + suite.name(w),
                "sweep");
            const FetchStats stats = suite.runOne(w, configs[c]);
            timer.stop();
            result.cell(c, w) = stats;
            CellTiming &timing = result.timing(c, w);
            timing.wallSeconds = timer.seconds();
            timing.instructions = stats.instructions;
            progress.cellDone(stats.instructions);
            if (sink)
                sink(c, w, result.cell(c, w), timing);
            return;
        }
        const size_t g = (i - single_tasks) / workloads;
        const size_t w = (i - single_tasks) % workloads;
        obs::ScopedTimer timer(
            "group " + std::to_string(g) + ":" + suite.name(w),
            "sweep");
        const std::vector<CollapsedCell> cells =
            runCollapsedGroup(suite, w, configs, plan.groups[g]);
        timer.stop();
        for (const CollapsedCell &cell : cells) {
            result.cell(cell.config, w) = cell.stats;
            CellTiming &timing = result.timing(cell.config, w);
            timing.wallSeconds = cell.wallSeconds;
            timing.instructions = cell.stats.instructions;
            timing.collapsed = !cell.leader;
            progress.cellDone(cell.stats.instructions);
            if (sink)
                sink(cell.config, w, result.cell(cell.config, w),
                     timing);
        }
    });
    return result;
}

} // namespace ibs

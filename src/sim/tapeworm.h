/**
 * @file
 * Tapeworm II: trap-driven, multi-trial simulation of
 * physically-indexed caches.
 *
 * The original Tapeworm ran inside the OS kernel, so every trial saw
 * the page mappings the real OS happened to hand out; repeating a
 * workload five times yielded the CPIinstr variance of Figure 5.
 * This driver reproduces the experiment: each trial replays the same
 * workload trace through the same cache, but with a fresh
 * virtual-to-physical mapping drawn from the configured OS page-
 * allocation policy. Kernel (kseg0) code keeps its fixed direct
 * mapping across trials, exactly as on the real machine.
 *
 * runTapewormGrid replays many experiment points at once. It
 * generates each trace length once as ASID-tagged runs
 * (workload/run_stream.h generateRunTrace); a run never crosses a
 * line, and lines are no larger than a page, so a run never crosses a
 * page and one MemoryMap translation serves the whole run. Points that
 * share (trace length, policy, frames, colors) see the *same*
 * physical mapping in a given trial — the allocator's same-color
 * collision probe steps by `colors`, so the color count is part of
 * the key — and form one group: per (group, trial) item, one map
 * translates every run once and each cache of the group replays the
 * physical runs with one tag probe per run. Items run on the shared
 * pool (sim/parallel.h); per-trial miss counts are folded into the
 * RunningStats serially in trial order, so results are bit-identical
 * to the per-instruction translate-and-probe loop at any thread
 * count.
 */

#ifndef IBS_SIM_TAPEWORM_H
#define IBS_SIM_TAPEWORM_H

#include <cstdint>
#include <vector>

#include "cache/config.h"
#include "stats/summary.h"
#include "vm/page_allocator.h"
#include "workload/params.h"

namespace ibs {

/** One Figure 5 experiment point. */
struct TapewormConfig
{
    CacheConfig cache{8 * 1024, 1, 32, Replacement::LRU};
    uint32_t missPenalty = 7;  ///< Cycles (32-B line from on-chip L2).
    PagePolicy policy = PagePolicy::Random;
    uint64_t frames = 16384;   ///< Physical pool (64 MB of 4-KB pages).
    uint32_t trials = 5;       ///< The paper used 5.
    uint64_t instructions = 1'000'000;
};

/** Across-trial distribution of the metrics. */
struct TapewormResult
{
    RunningStats cpiInstr;
    RunningStats mpi100;
};

/**
 * Run the multi-trial experiment.
 *
 * @param spec workload (the *same* trace is replayed every trial)
 * @param config experiment point
 * @param base_seed trial i re-seeds the page allocator with
 *        base_seed + i; the workload stream seed is fixed
 */
TapewormResult runTapeworm(const WorkloadSpec &spec,
                           const TapewormConfig &config,
                           uint64_t base_seed = 0x7a9e);

/**
 * Run many experiment points over one workload (see the file
 * comment). Point i's result equals runTapeworm(spec, configs[i],
 * base_seed); each point keeps its own trial count and trace length.
 *
 * @throws std::invalid_argument if a line is larger than a page
 * @return one result per config, in order
 */
std::vector<TapewormResult>
runTapewormGrid(const WorkloadSpec &spec,
                const std::vector<TapewormConfig> &configs,
                uint64_t base_seed = 0x7a9e);

} // namespace ibs

#endif // IBS_SIM_TAPEWORM_H

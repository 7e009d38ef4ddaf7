/**
 * @file
 * Tapeworm driver implementation.
 */

#include "sim/tapeworm.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "cache/cache.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "sim/parallel.h"
#include "sim/sweep.h"
#include "vm/address_space.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace ibs {

namespace {

/** Points that see the same physical mapping in every trial. */
struct Group
{
    uint64_t instructions;
    PagePolicy policy;
    uint64_t frames;
    uint64_t colors;
    uint32_t trials = 0; ///< Most trials any member asks for.
    std::vector<size_t> members;
};

} // namespace

TapewormResult
runTapeworm(const WorkloadSpec &spec, const TapewormConfig &config,
            uint64_t base_seed)
{
    return runTapewormGrid(spec, {config}, base_seed).front();
}

std::vector<TapewormResult>
runTapewormGrid(const WorkloadSpec &spec,
                const std::vector<TapewormConfig> &configs,
                uint64_t base_seed)
{
    // One trace per distinct length, cut at the smallest line of the
    // points replaying it: a run inside a small line is inside every
    // larger line too.
    std::map<uint64_t, uint32_t> cut_line;
    std::vector<Group> groups;
    uint32_t max_trials = 0;
    for (size_t c = 0; c < configs.size(); ++c) {
        const TapewormConfig &config = configs[c];
        if (config.cache.lineBytes > PAGE_SIZE) {
            throw std::invalid_argument(
                "runTapewormGrid: cache line larger than a page");
        }
        auto [it, fresh] = cut_line.try_emplace(
            config.instructions, config.cache.lineBytes);
        if (!fresh)
            it->second = std::min(it->second, config.cache.lineBytes);

        const uint64_t colors = config.cache.colors();
        auto g = std::find_if(groups.begin(), groups.end(),
                              [&](const Group &group) {
            return group.instructions == config.instructions &&
                group.policy == config.policy &&
                group.frames == config.frames &&
                group.colors == colors;
        });
        if (g == groups.end()) {
            g = groups.insert(groups.end(),
                              Group{config.instructions,
                                    config.policy, config.frames,
                                    colors, 0, {}});
        }
        g->trials = std::max(g->trials, config.trials);
        g->members.push_back(c);
        max_trials = std::max(max_trials, config.trials);
    }

    std::map<uint64_t, RunTrace> traces;
    {
        obs::ScopedTimer timer("tapeworm.generate");
        for (const auto &[length, line] : cut_line) {
            WorkloadModel model(spec);
            traces.emplace(length, generateRunTrace(model, line, length));
        }
    }

    // One item per (group, trial); each writes only its members'
    // miss slots for that trial.
    std::vector<std::pair<size_t, uint32_t>> items;
    for (size_t g = 0; g < groups.size(); ++g) {
        for (uint32_t trial = 0; trial < groups[g].trials; ++trial)
            items.emplace_back(g, trial);
    }
    std::vector<uint64_t> misses(configs.size() * max_trials, 0);
    parallelFor(items.size(), sweepThreads(), [&](size_t i) {
        const Group &group = groups[items[i].first];
        const uint32_t trial = items[i].second;
        const RunTrace &trace = traces.at(group.instructions);

        std::vector<uint64_t> paddrs(trace.runs.size());
        obs::ScopedTimer translate("tapeworm.translate");
        MemoryMap map(makeAllocator(group.policy, group.frames,
                                    group.colors, base_seed + trial));
        for (size_t r = 0; r < trace.runs.size(); ++r) {
            paddrs[r] = map.translate(trace.runs[r].asid,
                                      trace.runs[r].startVaddr);
        }
        translate.stop();

        obs::ScopedTimer replay("tapeworm.replay");
        for (size_t c : group.members) {
            if (trial >= configs[c].trials)
                continue;
            Cache cache(configs[c].cache);
            uint64_t n_miss = 0;
            for (size_t r = 0; r < trace.runs.size(); ++r) {
                // Only a run's first fetch can miss.
                n_miss += !cache.accessRunFill(paddrs[r],
                                               trace.runs[r].count);
            }
            misses[c * max_trials + trial] = n_miss;
        }
        replay.stop();

        obs::Registry &registry = obs::Registry::global();
        if (registry.enabled()) {
            registry.add("tapeworm." + spec.name + ".translations",
                         trace.runs.size());
            registry.add("tapeworm." + spec.name + ".page_faults",
                         map.pageFaults());
        }
    });

    // Fold trials in order: the same floating-point sequence as a
    // serial trial loop.
    std::vector<TapewormResult> results(configs.size());
    for (size_t c = 0; c < configs.size(); ++c) {
        const double n = static_cast<double>(
            traces.at(configs[c].instructions).instructions);
        for (uint32_t trial = 0; trial < configs[c].trials; ++trial) {
            const double mpi = n > 0
                ? static_cast<double>(misses[c * max_trials + trial]) /
                    n
                : 0;
            results[c].mpi100.add(mpi * 100.0);
            results[c].cpiInstr.add(mpi * configs[c].missPenalty);
        }
    }
    return results;
}

} // namespace ibs

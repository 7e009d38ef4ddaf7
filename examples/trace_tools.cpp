/**
 * @file
 * Example: bounding the distortion of a Monster trace capture.
 *
 * The original IBS traces were captured by the Monster logic
 * analyzer, which stalls the machine while it unloads its buffer.
 * This example replays a workload through an I-cache twice — once
 * captured non-invasively, once with the stall-and-unload handler's
 * references injected — to reproduce the paper's <5% distortion
 * check:
 *
 *   trace_tools monster <workload> [n]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "cache/cache.h"
#include "stats/table.h"
#include "trace/monster.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace {

using namespace ibs;

WorkloadSpec
lookupOrDie(const std::string &name)
{
    for (IbsBenchmark b : allIbsBenchmarks())
        for (OsType os : {OsType::Mach, OsType::Ultrix}) {
            WorkloadSpec spec = makeIbs(b, os);
            if (spec.name == name)
                return spec;
        }
    for (SpecBenchmark b : allSpecBenchmarks()) {
        WorkloadSpec spec = makeSpec(b);
        if (spec.name == name)
            return spec;
    }
    std::cerr << "unknown workload: " << name << "\n";
    std::exit(1);
}

int
monster(const std::string &name, uint64_t n)
{
    const WorkloadSpec spec = lookupOrDie(name);

    auto mpiOf = [&](uint64_t handler_instrs) {
        WorkloadModel model(spec);
        MonsterConfig config;
        config.bufferRecords = 64 * 1024;
        config.unloadHandlerInstrs = handler_instrs;
        MonsterCapture capture(model, config);
        Cache cache(CacheConfig{8 * 1024, 1, 32, Replacement::LRU});
        TraceRecord rec;
        uint64_t instrs = 0, misses = 0;
        while (instrs < n && capture.next(rec)) {
            if (!rec.isInstr())
                continue;
            ++instrs;
            if (!cache.access(rec.vaddr))
                ++misses;
        }
        return 100.0 * static_cast<double>(misses) /
            static_cast<double>(instrs);
    };

    const double clean = mpiOf(0);
    const double stalled = mpiOf(2000);
    std::cout << "non-invasive capture MPI:   "
              << TextTable::num(clean, 3) << "\n"
              << "stall-and-unload capture:   "
              << TextTable::num(stalled, 3) << "\n"
              << "distortion:                 "
              << TextTable::num(100.0 * (stalled - clean) / clean, 1)
              << "% (paper bound: <5%)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "monster" && argc >= 3) {
        return monster(argv[2],
                       argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                : 1'000'000);
    }
    std::cerr << "usage: trace_tools monster <workload> [instructions]\n";
    return 1;
}

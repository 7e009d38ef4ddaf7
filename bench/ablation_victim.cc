/**
 * @file
 * Ablation: conflict-miss remedies compared. The paper argues for
 * associative on-chip L2s over after-the-fact conflict removal (CML
 * buffers, §5.1); Jouppi's victim cache is the classic hardware
 * middle ground. This bench compares, at the 8-KB L1 level, for the
 * IBS (Mach) average:
 *
 *   - plain direct-mapped,
 *   - direct-mapped + {1,2,4,8}-line victim buffer,
 *   - 2-way set-associative (same capacity).
 *
 * Metric: misses per 100 instructions (victim-buffer hits cost a
 * swap, not a fill, so they are excluded from the miss count; a
 * footnote row reports them separately).
 */

#include <iostream>

#include "cache/cache.h"
#include "cache/victim.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_victim");
    const uint64_t n = benchInstructions();
    SuiteTraces suite(ibsSuite(OsType::Mach), n);

    TextTable table("Ablation: conflict-miss remedies at 8KB "
                    "(IBS avg, 32B lines)");
    table.setHeader({"design", "MPI*100", "victim swaps per 100"});

    auto plain = [&](uint32_t assoc) {
        uint64_t misses = 0, instrs = 0;
        const CacheConfig cfg{8 * 1024, assoc, 32, Replacement::LRU};
        const std::string label =
            std::to_string(assoc) + "way";
        for (size_t i = 0; i < suite.count(); ++i) {
            obs::ScopedTimer cell_timer("plain " + label + " " +
                                        suite.name(i));
            const RunTrace &runs = suite.runTrace(i, 32);
            Cache cache(cfg);
            for (const FetchRun &run : runs.runs)
                cache.accessRunFill(run.startVaddr, run.count);
            cell_timer.stop();
            const uint64_t w_misses = cache.misses();
            const uint64_t w_instrs = runs.instructions;
            const Json stats = Json::object()
                .set("instructions", Json::number(w_instrs))
                .set("l1_misses", Json::number(w_misses))
                .set("mpi100",
                     Json::number(100.0 *
                                  static_cast<double>(w_misses) /
                                  static_cast<double>(w_instrs)));
            report.addCell(suite.name(i), toJson(cfg), stats,
                           cell_timer.seconds(), w_instrs, "plain",
                           label);
            misses += w_misses;
            instrs += w_instrs;
        }
        return 100.0 * static_cast<double>(misses) /
            static_cast<double>(instrs);
    };

    table.addRow({"direct-mapped", TextTable::num(plain(1), 2), "-"});
    for (uint32_t v : {1u, 2u, 4u, 8u}) {
        uint64_t misses = 0, swaps = 0, instrs = 0;
        const CacheConfig cfg{8 * 1024, 1, 32, Replacement::LRU};
        for (size_t i = 0; i < suite.count(); ++i) {
            obs::ScopedTimer cell_timer("victim " + std::to_string(v) +
                                        "line " + suite.name(i));
            const RunTrace &runs = suite.runTrace(i, 32);
            VictimCache cache(cfg, v);
            uint64_t w_misses = 0, w_swaps = 0;
            for (const FetchRun &run : runs.runs) {
                for (uint32_t k = 0; k < run.count; ++k) {
                    const int r = cache.access(
                        run.startVaddr + uint64_t{k} * kInstrBytes);
                    if (r == 2)
                        ++w_misses;
                    else if (r == 1)
                        ++w_swaps;
                }
            }
            cell_timer.stop();
            const uint64_t w_instrs = runs.instructions;
            const Json config = Json::object()
                .set("l1", toJson(cfg))
                .set("victim_lines", Json::number(uint64_t{v}));
            const Json stats = Json::object()
                .set("instructions", Json::number(w_instrs))
                .set("l1_misses", Json::number(w_misses))
                .set("victim_swaps", Json::number(w_swaps))
                .set("mpi100",
                     Json::number(100.0 *
                                  static_cast<double>(w_misses) /
                                  static_cast<double>(w_instrs)));
            report.addCell(suite.name(i), config, stats,
                           cell_timer.seconds(), w_instrs, "victim",
                           "victim" + std::to_string(v));
            if (obs::Registry::global().enabled())
                cache.publishCounters(obs::Registry::global(),
                                      std::to_string(v));
            misses += w_misses;
            swaps += w_swaps;
            instrs += w_instrs;
        }
        table.addRow({
            "DM + " + std::to_string(v) + "-line victim buffer",
            TextTable::num(100.0 * misses / instrs, 2),
            TextTable::num(100.0 * swaps / instrs, 2),
        });
    }
    table.addRow({"2-way set-associative",
                  TextTable::num(plain(2), 2), "-"});
    table.addRow({"8-way set-associative",
                  TextTable::num(plain(8), 2), "-"});

    std::cout << table.render();
    std::cout << "\nexpected shape: a small victim buffer removes "
                 "part of the DM conflict gap;\nreal associativity "
                 "removes it all — consistent with the paper's "
                 "preference for\nassociative L2s over "
                 "conflict-patching structures.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

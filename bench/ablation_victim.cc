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
#include <iterator>

#include "cache/cache.h"
#include "cache/victim.h"
#include "obs/registry.h"
#include "sim/bench_report.h"
#include "sim/cells.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

/** One design of the comparison, in table order. */
struct Design
{
    uint32_t assoc;       ///< Ways of the 8-KB L1.
    uint32_t victimLines; ///< Victim-buffer lines; 0 for none.
};

/** Misses and victim swaps of one (design, workload) cell. */
struct Counts
{
    uint64_t misses = 0;
    uint64_t swaps = 0;
};

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_victim");
    const uint64_t n = benchInstructions();
    SuiteTraces suite(ibsSuite(OsType::Mach), n);
    const size_t workloads = suite.count();

    const Design designs[] = {{1, 0}, {1, 1}, {1, 2}, {1, 4},
                              {1, 8}, {2, 0}, {8, 0}};
    auto cfgOf = [](const Design &d) {
        return CacheConfig{8 * 1024, d.assoc, 32, Replacement::LRU};
    };
    auto labelOf = [](const Design &d) {
        return d.victimLines ? std::to_string(d.victimLines) + "line"
                             : std::to_string(d.assoc) + "way";
    };

    // Cells: every workload under each design, design-major.
    const auto cells = runCells(
        std::size(designs) * workloads,
        [&](size_t i) {
            const Design &d = designs[i / workloads];
            return std::string(d.victimLines ? "victim " : "plain ") +
                labelOf(d) + " " + suite.name(i % workloads);
        },
        [&](size_t i) {
            const Design &d = designs[i / workloads];
            const RunTrace &runs = suite.runTrace(i % workloads, 32);
            Counts counts;
            if (!d.victimLines) {
                Cache cache(cfgOf(d));
                for (const FetchRun &run : runs.runs)
                    cache.accessRunFill(run.startVaddr, run.count);
                counts.misses = cache.misses();
                return counts;
            }
            VictimCache cache(cfgOf(d), d.victimLines);
            for (const FetchRun &run : runs.runs) {
                for (uint32_t k = 0; k < run.count; ++k) {
                    const int r = cache.access(
                        run.startVaddr + uint64_t{k} * kInstrBytes);
                    if (r == 2)
                        ++counts.misses;
                    else if (r == 1)
                        ++counts.swaps;
                }
            }
            if (obs::Registry::global().enabled())
                cache.publishCounters(obs::Registry::global(),
                                      std::to_string(d.victimLines));
            return counts;
        });

    TextTable table("Ablation: conflict-miss remedies at 8KB "
                    "(IBS avg, 32B lines)");
    table.setHeader({"design", "MPI*100", "victim swaps per 100"});
    for (size_t di = 0; di < std::size(designs); ++di) {
        const Design &d = designs[di];
        const CacheConfig cfg = cfgOf(d);
        L1Count total;
        uint64_t swaps = 0;
        for (size_t w = 0; w < workloads; ++w) {
            const auto &[counts, seconds] = cells[di * workloads + w];
            const L1Count l1{suite.runTrace(w, 32).instructions,
                             counts.misses, {}};
            if (d.victimLines) {
                const Json config = Json::object()
                    .set("l1", toJson(cfg))
                    .set("victim_lines",
                         Json::number(uint64_t{d.victimLines}));
                const Json stats = Json::object()
                    .set("instructions", Json::number(l1.instructions))
                    .set("l1_misses", Json::number(l1.misses))
                    .set("victim_swaps", Json::number(counts.swaps))
                    .set("mpi100", Json::number(l1.mpi100()));
                report.addCell(suite.name(w), config, stats, seconds,
                               l1.instructions, "victim",
                               "victim" + std::to_string(d.victimLines));
            } else {
                report.addCell(suite.name(w), toJson(cfg), toJson(l1),
                               seconds, l1.instructions, "plain",
                               labelOf(d));
            }
            total.instructions += l1.instructions;
            total.misses += l1.misses;
            swaps += counts.swaps;
        }
        if (d.victimLines) {
            table.addRow({
                "DM + " + std::to_string(d.victimLines) +
                    "-line victim buffer",
                TextTable::num(total.mpi100(), 2),
                TextTable::num(100.0 * static_cast<double>(swaps) /
                                   static_cast<double>(total.instructions),
                               2),
            });
        } else {
            table.addRow({d.assoc == 1
                              ? std::string("direct-mapped")
                              : std::to_string(d.assoc) +
                                  "-way set-associative",
                          TextTable::num(total.mpi100(), 2), "-"});
        }
    }

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

/**
 * @file
 * Ablation (§5.1): CML buffers vs associativity. The paper argues
 * that associative on-chip L2 caches are "an attractive alternative
 * to the recently-proposed cache miss lookaside (CML) buffers
 * [Bershad94], which detect and remove conflict misses only after
 * they begin to affect performance." This bench runs both remedies
 * on physically-indexed caches with random OS page placement:
 *
 *   - plain direct-mapped (the victim of bad placement),
 *   - direct-mapped + CML buffer with dynamic page recoloring
 *     (including the recolor/copy overhead),
 *   - 2-way set-associative (the hardware fix).
 */

#include <iostream>

#include "cache/cache.h"
#include "sim/bench_report.h"
#include "sim/cells.h"
#include "sim/cml_sim.h"
#include "sim/runner.h"
#include "sim/tapeworm.h"
#include "stats/table.h"
#include "workload/ibs.h"

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_cml");
    const uint64_t n = benchInstructions(600000);
    TextTable table("Ablation: CML buffer vs associativity "
                    "(physically-indexed, random placement)");
    table.setHeader({"workload", "cache", "DM CPIinstr",
                     "DM+CML (incl. remap)", "recolors",
                     "2-way CPIinstr"});

    const uint64_t sizes_kb[] = {16, 32, 64};
    std::vector<WorkloadSpec> specs;
    for (IbsBenchmark b : {IbsBenchmark::Verilog, IbsBenchmark::Gs,
                           IbsBenchmark::Gcc})
        specs.push_back(makeIbs(b, OsType::Mach));

    // Cells: one CML experiment per (workload, size).
    auto experiment = [&](size_t i) {
        CmlExperiment e;
        e.cache = CacheConfig{sizes_kb[i % 3] * 1024, 1, 32,
                              Replacement::LRU};
        e.instructions = n;
        return e;
    };
    const auto cells = runCells(
        specs.size() * 3,
        [&](size_t i) {
            return "cml " + specs[i / 3].name + " " +
                std::to_string(sizes_kb[i % 3]) + "KB";
        },
        [&](size_t i) { return runCml(specs[i / 3], experiment(i)); });

    // The 2-way reference points: one-trial Tapeworm runs with the
    // same instruction budget, one grid per workload.
    std::vector<TapewormConfig> references;
    for (uint64_t kb : sizes_kb) {
        TapewormConfig tw;
        tw.cache = CacheConfig{kb * 1024, 2, 32, Replacement::LRU};
        tw.trials = 1;
        tw.instructions = n;
        references.push_back(tw);
    }

    for (size_t w = 0; w < specs.size(); ++w) {
        const WorkloadSpec &spec = specs[w];
        WallTimer grid_timer;
        const std::vector<TapewormResult> assoc =
            runTapewormGrid(spec, references);
        const double grid_share =
            grid_timer.seconds() / static_cast<double>(references.size());
        for (size_t k = 0; k < references.size(); ++k) {
            const size_t i = w * 3 + k;
            const CmlResult &r = cells[i].result;
            const uint64_t kb = sizes_kb[k];
            const Json config_json = Json::object()
                .set("cache", toJson(experiment(i).cache))
                .set("assoc_reference", toJson(references[k].cache));
            const Json stats = Json::object()
                .set("cpi_baseline_dm",
                     Json::number(r.cpiBaseline))
                .set("cpi_with_cml", Json::number(r.cpiWithCml))
                .set("cpi_recolor_overhead",
                     Json::number(r.cpiRecolorOverhead))
                .set("recolors", Json::number(r.recolors))
                .set("cpi_2way",
                     Json::number(assoc[k].cpiInstr.mean()));
            report.addCell(spec.name, config_json, stats,
                           cells[i].seconds + grid_share, 2 * n, "cml",
                           std::to_string(kb) + "KB");

            table.addRow({
                spec.name, std::to_string(kb) + "KB",
                TextTable::num(r.cpiBaseline),
                TextTable::num(r.cpiWithCml) + " (+" +
                    TextTable::num(r.cpiRecolorOverhead) + ")",
                TextTable::num(r.recolors),
                TextTable::num(assoc[k].cpiInstr.mean()),
            });
        }
    }
    std::cout << table.render();
    std::cout << "\nexpected shape: the CML mechanism shaves only "
                 "part of the conflict CPI (most\nIBS conflicts are "
                 "not simple two-page ping-pongs) and pays per-"
                 "recolor OS\noverhead that must amortize over long "
                 "executions; 2-way associativity removes\nthe "
                 "conflicts outright with no overhead — the paper's "
                 "§5.1 argument for\nassociative on-chip L2s over "
                 "CML buffers.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

/**
 * @file
 * Ablation (§5): the unified-L2 caveat. "Because an L2 cache is
 * likely to be shared by both instructions and data, our results
 * represent a lower bound relative to an actual system." This bench
 * quantifies the bound: the tuned on-chip L2 (64-KB 8-way) with an
 * instruction-only L2 versus the same L2 also absorbing the
 * workload's data references.
 */

#include <iostream>

#include "core/fetch_config.h"
#include "core/fetch_engine.h"
#include "sim/bench_report.h"
#include "sim/cells.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"
#include "workload/model.h"

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_unified_l2");
    const uint64_t n = benchInstructions(800000);

    TextTable table("Ablation: instruction-only vs unified on-chip "
                    "L2 (64KB 8-way, economy backing)");
    table.setHeader({"workload", "I-only L2 CPIinstr",
                     "unified L2 CPIinstr", "L2 I-miss ratio",
                     "unified L2 I-miss ratio"});

    FetchConfig ionly = withOnChipL2(economyBaseline(), 64 * 1024,
                                     64, 8);
    FetchConfig unified = ionly;
    unified.l2Unified = true;

    // Cells: each IBS (Mach) workload with data references, under
    // the instruction-only L2 and then the unified one.
    std::vector<WorkloadSpec> specs;
    for (IbsBenchmark b : allIbsBenchmarks()) {
        specs.push_back(makeIbs(b, OsType::Mach));
        specs.back().data.enabled = true;
    }
    auto configOf = [&](size_t i) { return i % 2 ? unified : ionly; };
    auto gridOf = [](size_t i) {
        return i % 2 ? "unified" : "instruction_only";
    };
    const auto cells = runCells(
        specs.size() * 2,
        [&](size_t i) {
            return std::string(gridOf(i)) + " " + specs[i / 2].name;
        },
        [&](size_t i) {
            WorkloadModel model(specs[i / 2]);
            return FetchEngine(configOf(i)).run(model, n);
        });
    for (size_t i = 0; i < cells.size(); ++i) {
        report.addCell(specs[i / 2].name, toJson(configOf(i)),
                       toJson(cells[i].result), cells[i].seconds,
                       cells[i].result.instructions, gridOf(i));
    }

    double i_sum = 0, u_sum = 0;
    for (size_t w = 0; w < specs.size(); ++w) {
        const FetchStats &si = cells[2 * w].result;
        const FetchStats &su = cells[2 * w + 1].result;
        i_sum += si.cpiInstr();
        u_sum += su.cpiInstr();
        table.addRow({
            benchmarkName(allIbsBenchmarks()[w]),
            TextTable::num(si.cpiInstr()),
            TextTable::num(su.cpiInstr()),
            TextTable::num(si.l2MissRatio()),
            TextTable::num(su.l2MissRatio()),
        });
    }
    table.addRule();
    table.addRow({"average", TextTable::num(i_sum / 8),
                  TextTable::num(u_sum / 8), "", ""});
    std::cout << table.render();
    std::cout << "\nexpected shape: sharing the L2 with data raises "
                 "the instruction-side L2 miss\nratio and CPIinstr — "
                 "the paper's I-only numbers are indeed a lower "
                 "bound.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

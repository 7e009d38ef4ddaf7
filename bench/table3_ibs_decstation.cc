/**
 * @file
 * Reproduces Table 3: memory performance of the IBS workloads on the
 * DECstation 3100 hardware monitor, against SPEC92.
 *
 * Paper rows (User% / OS% / CPIinstr / CPIdata / CPIwrite):
 *   IBS (Mach 3.0):   62 / 38 / 0.36 / 0.28 / 0.16
 *   IBS (Ultrix 3.1): 76 / 24 / 0.19 / 0.30 / 0.11
 *   SPECint92:        97 /  3 / 0.05 / 0.08 / 0.06
 *   SPECfp92:         98 /  2 / 0.05 / 0.44 / 0.13
 */

#include <iostream>

#include "core/decstation.h"
#include "sim/bench_report.h"
#include "sim/cells.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace {

using namespace ibs;

/** Sum the DECstation stats of one suite's cells, reporting each. */
DecstationStats
suiteRow(const std::vector<WorkloadSpec> &specs,
         const std::vector<Cell<DecstationStats>> &cells, size_t begin,
         size_t end, BenchReport &report, const std::string &grid)
{
    DecstationStats total;
    for (size_t i = begin; i < end; ++i) {
        const DecstationStats &s = cells[i].result;
        report.addCell(specs[i].name, Json::object(), toJson(s),
                       cells[i].seconds, s.instructions, grid);
        total.instructions += s.instructions;
        total.userInstructions += s.userInstructions;
        total.icacheMisses += s.icacheMisses;
        total.dcacheMisses += s.dcacheMisses;
        total.tlbMisses += s.tlbMisses;
        total.writeStallCycles += s.writeStallCycles;
    }
    return total;
}

void
addRow(TextTable &table, const std::string &name,
       const DecstationStats &s)
{
    table.addRow({
        name,
        TextTable::num(100.0 * s.userFraction(), 0),
        TextTable::num(100.0 * (1.0 - s.userFraction()), 0),
        TextTable::num(s.cpiInstr(), 2),
        TextTable::num(s.cpiData(), 2),
        TextTable::num(s.cpiWrite(), 2),
    });
}

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("table3_ibs_decstation");
    const uint64_t n = benchInstructions(800000);
    TextTable table(
        "Table 3: Memory Performance of the IBS Workloads "
        "(DECstation 3100)");
    table.setHeader({"Benchmark", "User%", "OS%", "I-cache CPI",
                     "D-cache CPI", "Write CPI"});

    // Cells: the IBS suite with data references under Mach, then
    // under Ultrix, then the two SPEC92 composites.
    std::vector<WorkloadSpec> specs;
    for (OsType os : {OsType::Mach, OsType::Ultrix}) {
        for (WorkloadSpec spec : ibsSuite(os)) {
            spec.data.enabled = true;
            specs.push_back(spec);
        }
    }
    const size_t ibs_cells = specs.size();
    for (const char *which : {"SPECint92", "SPECfp92"})
        specs.push_back(specComposite(which));
    const auto cells = runCells(
        specs.size(),
        [&](size_t i) { return "decstation " + specs[i].name; },
        [&](size_t i) {
            WorkloadModel model(specs[i]);
            return DecstationModel().run(model, n);
        });

    addRow(table, "IBS (Mach 3.0)",
           suiteRow(specs, cells, 0, ibs_cells / 2, report,
                    "ibs_mach"));
    addRow(table, "IBS (Ultrix 3.1)",
           suiteRow(specs, cells, ibs_cells / 2, ibs_cells, report,
                    "ibs_ultrix"));
    for (size_t i = ibs_cells; i < specs.size(); ++i) {
        const DecstationStats &s = cells[i].result;
        report.addCell(specs[i].name, Json::object(), toJson(s),
                       cells[i].seconds, s.instructions, "spec92");
        addRow(table, specs[i].name, s);
    }

    std::cout << table.render();
    std::cout <<
        "\npaper:  IBS/Mach   62/38  0.36/0.28/0.16\n"
        "        IBS/Ultrix 76/24  0.19/0.30/0.11\n"
        "        SPECint92  97/3   0.05/0.08/0.06\n"
        "        SPECfp92   98/2   0.05/0.44/0.13\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

/**
 * @file
 * Reproduces Table 1: memory-system performance of the SPEC
 * benchmark suites as measured on a DECstation 3100 (16.6-MHz R2000,
 * split direct-mapped 64-KB off-chip caches with 4-byte lines,
 * 6-cycle miss penalty, 64-entry fully-associative TLB).
 *
 * Paper rows (Total Memory CPI / CPIinstr / CPIdata / CPItlb /
 * CPIwrite):
 *   SPECint89: 0.285 / 0.067 / 0.100 / 0.044 / 0.074
 *   SPECfp89:  0.967 / 0.100 / 0.668 / 0.020 / 0.179
 *   SPECint92: 0.271 / 0.051 / 0.084 / 0.073 / 0.063
 *   SPECfp92:  0.749 / 0.053 / 0.436 / 0.134 / 0.126
 */

#include <iostream>

#include "core/decstation.h"
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

    BenchReport report("table1_spec_decstation");
    const uint64_t n = benchInstructions();
    TextTable table(
        "Table 1: Memory System Performance of the SPEC Benchmarks");
    table.setHeader({"Benchmark", "User%", "OS%", "Total Memory CPI",
                     "I-cache", "D-cache", "TLB", "Write"});

    std::vector<WorkloadSpec> specs;
    for (const char *which : {"SPECint89", "SPECfp89", "SPECint92",
                              "SPECfp92"})
        specs.push_back(specComposite(which));
    const auto cells = runCells(
        specs.size(),
        [&](size_t i) { return "decstation " + specs[i].name; },
        [&](size_t i) {
            WorkloadModel model(specs[i]);
            return DecstationModel().run(model, n);
        });
    for (size_t i = 0; i < specs.size(); ++i) {
        const DecstationStats &s = cells[i].result;
        report.addCell(specs[i].name, Json::object(), toJson(s),
                       cells[i].seconds, s.instructions,
                       "decstation_3100");
        table.addRow({
            specs[i].name,
            TextTable::num(100.0 * s.userFraction(), 0),
            TextTable::num(100.0 * (1.0 - s.userFraction()), 0),
            TextTable::num(s.totalMemoryCpi()),
            TextTable::num(s.cpiInstr()),
            TextTable::num(s.cpiData()),
            TextTable::num(s.cpiTlb()),
            TextTable::num(s.cpiWrite()),
        });
    }
    std::cout << table.render();
    std::cout <<
        "\npaper:  SPECint89 0.285/0.067/0.100/0.044/0.074\n"
        "        SPECfp89  0.967/0.100/0.668/0.020/0.179\n"
        "        SPECint92 0.271/0.051/0.084/0.073/0.063\n"
        "        SPECfp92  0.749/0.053/0.436/0.134/0.126\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

/**
 * @file
 * Ablation: the code-bloat claims of §4.2, isolated one source at a
 * time (8-KB direct-mapped, 32-byte lines):
 *
 *  - maintainability: groff (C++) vs nroff (C) on the same input —
 *    paper: groff MPI ~60% higher;
 *  - functionality: IBS gcc 2.6 vs SPEC gcc — paper: ~15% higher;
 *  - OS structure: each workload under Mach 3.0 vs Ultrix 3.1 —
 *    paper: suite average ~35% higher under Mach;
 *  - portability: the Mach user task carries the dynamically-linked
 *    BSD API-emulation library — compared here by running the user
 *    component alone under both builds.
 */

#include <iostream>

#include "sim/bench_report.h"
#include "sim/cells.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

/** One 8-KB DM / 32-B L1 MPI cell of the bench. */
struct MpiCell
{
    WorkloadSpec spec;
    std::string grid;
};

WorkloadSpec
userOnly(WorkloadSpec spec)
{
    ComponentParams user = spec.components[static_cast<size_t>(
        spec.findComponent(ComponentKind::User))];
    user.executionShare = 100;
    spec.components = {user};
    spec.name += ".user-only";
    return spec;
}

} // namespace

int
main()
{
    using namespace ibs;
    BenchReport report("ablation_bloat");
    const uint64_t n = benchInstructions();

    // Every cell, in the order the tables below consume them.
    const IbsBenchmark emulated[] = {IbsBenchmark::Gcc, IbsBenchmark::Gs,
                                     IbsBenchmark::Verilog};
    std::vector<MpiCell> specs = {
        {makeIbs(IbsBenchmark::Nroff, OsType::Mach), "rewrite"},
        {makeIbs(IbsBenchmark::Groff, OsType::Mach), "rewrite"},
        {userOnly(makeSpec(SpecBenchmark::Gcc)), "features"},
        {userOnly(makeIbs(IbsBenchmark::Gcc, OsType::Ultrix)),
         "features"},
    };
    for (IbsBenchmark b : allIbsBenchmarks()) {
        specs.push_back({makeIbs(b, OsType::Ultrix), "os_structure"});
        specs.push_back({makeIbs(b, OsType::Mach), "os_structure"});
    }
    for (IbsBenchmark b : emulated) {
        specs.push_back(
            {userOnly(makeIbs(b, OsType::Ultrix)), "api_emulation"});
        specs.push_back(
            {userOnly(makeIbs(b, OsType::Mach)), "api_emulation"});
    }
    const auto cells = runCells(
        specs.size(),
        [&](size_t i) { return "l1_mpi " + specs[i].spec.name; },
        [&](size_t i) {
            return countL1Misses(
                specs[i].spec,
                CacheConfig{8 * 1024, 1, 32, Replacement::LRU}, n);
        });

    // Report cell `c` and return its MPI; consumes cells in order.
    size_t c = 0;
    auto mpiOf = [&] {
        const WorkloadSpec &spec = specs[c].spec;
        const L1Count &count = cells[c].result;
        report.addCell(spec.name + " (" + osName(spec.os) + ")",
                       Json::object(), toJson(count), cells[c].seconds,
                       count.instructions, specs[c].grid);
        ++c;
        return count.mpi100();
    };

    TextTable t1("Bloat source: object-oriented rewrite "
                 "(maintainability)");
    t1.setHeader({"workload", "MPI", "ratio"});
    const double nroff = mpiOf();
    const double groff = mpiOf();
    t1.addRow({"nroff (C)", TextTable::num(nroff, 2), "1.00"});
    t1.addRow({"groff (C++)", TextTable::num(groff, 2),
               TextTable::num(groff / nroff, 2)});
    std::cout << t1.render()
              << "paper: groff ~1.6x nroff (6.51 vs 3.99)\n\n";

    TextTable t2("Bloat source: feature growth (functionality)");
    t2.setHeader({"workload", "MPI", "ratio"});
    const double gcc_spec = mpiOf();
    const double gcc_ibs = mpiOf();
    t2.addRow({"gcc 1.35 (SPEC)", TextTable::num(gcc_spec, 2),
               "1.00"});
    t2.addRow({"gcc 2.6 (IBS)", TextTable::num(gcc_ibs, 2),
               TextTable::num(gcc_ibs / gcc_spec, 2)});
    std::cout << t2.render()
              << "paper: newer gcc ~1.15x the SPEC gcc\n\n";

    TextTable t3("Bloat source: OS structure (maintainability) — "
                 "Mach 3.0 vs Ultrix 3.1");
    t3.setHeader({"workload", "Ultrix MPI", "Mach MPI", "ratio"});
    double mach_sum = 0, ultrix_sum = 0;
    for (IbsBenchmark b : allIbsBenchmarks()) {
        const double u = mpiOf();
        const double m = mpiOf();
        mach_sum += m;
        ultrix_sum += u;
        t3.addRow({benchmarkName(b), TextTable::num(u, 2),
                   TextTable::num(m, 2), TextTable::num(m / u, 2)});
    }
    t3.addRule();
    t3.addRow({"average", TextTable::num(ultrix_sum / 8, 2),
               TextTable::num(mach_sum / 8, 2),
               TextTable::num(mach_sum / ultrix_sum, 2)});
    std::cout << t3.render()
              << "paper: Mach average ~1.35x Ultrix (4.79 vs "
                 "3.52)\n\n";

    TextTable t4("Bloat source: API emulation (portability) — user "
                 "task alone");
    t4.setHeader({"workload", "Ultrix build", "Mach build (+emul "
                  "lib)", "ratio"});
    for (IbsBenchmark b : emulated) {
        const double u = mpiOf();
        const double m = mpiOf();
        t4.addRow({benchmarkName(b), TextTable::num(u, 2),
                   TextTable::num(m, 2), TextTable::num(m / u, 2)});
    }
    std::cout << t4.render()
              << "paper: part of the Mach/Ultrix gap is the "
                 "emulation library linked into each task.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

/**
 * @file
 * Reproduces Table 4: per-workload MPI of the IBS suite in an 8-KB
 * direct-mapped I-cache with 32-byte lines (Mach 3.0), with the
 * execution-time breakdown across workload components, plus the
 * suite averages under Mach, Ultrix and for SPEC92.
 *
 * Paper values (MPI per 100 instructions): mpeg_play 4.28,
 * jpeg_play 2.39, gs 5.15, verilog 5.28, gcc 4.69, sdet 6.05,
 * nroff 3.99, groff 6.51; averages 4.79 (Mach), 3.52 (Ultrix),
 * 1.10 (SPEC92 per Gee et al.).
 */

#include <iostream>
#include <map>

#include "sim/bench_report.h"
#include "sim/cells.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

/** Execution share (percent) of each component kind in `count`. */
std::map<ComponentKind, double>
shares(const WorkloadSpec &spec, const L1Count &count)
{
    std::map<Asid, ComponentKind> kind_of;
    for (const auto &cp : spec.components)
        kind_of[cp.asid] = cp.kind;
    std::map<ComponentKind, double> share;
    for (const auto &[asid, instrs] : count.perAsid)
        share[kind_of[asid]] = 100.0 * static_cast<double>(instrs) /
            static_cast<double>(count.instructions);
    return share;
}

const char *
kindName(ComponentKind k)
{
    switch (k) {
    case ComponentKind::User: return "user_pct";
    case ComponentKind::Kernel: return "kernel_pct";
    case ComponentKind::BsdServer: return "bsd_pct";
    case ComponentKind::XServer: return "x_pct";
    }
    return "other_pct";
}

/** Report one cell; returns its per-kind execution shares. */
std::map<ComponentKind, double>
addRowCell(BenchReport &report, const std::string &workload,
           const WorkloadSpec &spec, const Cell<L1Count> &cell,
           const std::string &grid)
{
    const std::map<ComponentKind, double> share =
        shares(spec, cell.result);
    Json stats = toJson(cell.result);
    for (const auto &[kind, pct] : share)
        stats.set(kindName(kind), Json::number(pct));
    report.addCell(workload, Json::object(), std::move(stats),
                   cell.seconds, cell.result.instructions, grid);
    return share;
}

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("table4_ibs_mpi");
    const uint64_t n = benchInstructions();
    TextTable table("Table 4: Detailed I-cache Performance of the "
                    "IBS Workloads (8KB DM, 32B lines)");
    table.setHeader({"OS", "Application", "MPI", "User%", "Kernel%",
                     "BSD%", "X%"});

    // Cells: the eight IBS workloads under Mach, then under Ultrix,
    // then the SPEC92 benchmarks.
    std::vector<WorkloadSpec> specs;
    for (OsType os : {OsType::Mach, OsType::Ultrix}) {
        for (IbsBenchmark b : allIbsBenchmarks())
            specs.push_back(makeIbs(b, os));
    }
    for (SpecBenchmark b : allSpecBenchmarks())
        specs.push_back(makeSpec(b));
    const auto cells = runCells(
        specs.size(),
        [&](size_t i) { return "l1_mpi " + specs[i].name; },
        [&](size_t i) {
            return countL1Misses(
                specs[i], CacheConfig{8 * 1024, 1, 32, Replacement::LRU},
                n);
        });
    size_t c = 0;

    double mach_sum = 0;
    for (IbsBenchmark b : allIbsBenchmarks()) {
        const double mpi = cells[c].result.mpi100();
        const auto share = addRowCell(report, benchmarkName(b),
                                      specs[c], cells[c], "ibs_mach");
        ++c;
        mach_sum += mpi;
        auto pct = [&](ComponentKind k) {
            auto it = share.find(k);
            return it == share.end() ? std::string("0")
                                     : TextTable::num(it->second, 0);
        };
        table.addRow({"Mach 3.0", benchmarkName(b),
                      TextTable::num(mpi, 2),
                      pct(ComponentKind::User),
                      pct(ComponentKind::Kernel),
                      pct(ComponentKind::BsdServer),
                      pct(ComponentKind::XServer)});
    }
    table.addRule();

    const double mach_avg =
        mach_sum / static_cast<double>(allIbsBenchmarks().size());

    double ultrix_sum = 0;
    for (IbsBenchmark b : allIbsBenchmarks()) {
        ultrix_sum += cells[c].result.mpi100();
        addRowCell(report, benchmarkName(b), specs[c], cells[c],
                   "ibs_ultrix");
        ++c;
    }
    const double ultrix_avg =
        ultrix_sum / static_cast<double>(allIbsBenchmarks().size());

    double spec_sum = 0;
    for (SpecBenchmark b : allSpecBenchmarks()) {
        spec_sum += cells[c].result.mpi100();
        addRowCell(report, benchmarkName(b), specs[c], cells[c],
                   "spec92");
        ++c;
    }
    const double spec_avg =
        spec_sum / static_cast<double>(allSpecBenchmarks().size());

    table.addRow({"IBS Mach 3.0", "Average",
                  TextTable::num(mach_avg, 2), "", "", "", ""});
    table.addRow({"IBS Ultrix 3.1", "Average",
                  TextTable::num(ultrix_avg, 2), "", "", "", ""});
    table.addRow({"SPEC92", "Average", TextTable::num(spec_avg, 2),
                  "", "", "", ""});

    std::cout << table.render();
    std::cout << "\npaper:  4.28 / 2.39 / 5.15 / 5.28 / 4.69 / 6.05 "
                 "/ 3.99 / 6.51; averages 4.79 / 3.52 / 1.10\n"
              << "Mach/Ultrix MPI ratio: "
              << TextTable::num(mach_avg / ultrix_avg, 2)
              << " (paper: ~1.35)\n";

    report.meta()
        .set("instructions_per_workload", Json::number(n))
        .set("mach_avg_mpi100", Json::number(mach_avg))
        .set("ultrix_avg_mpi100", Json::number(ultrix_avg))
        .set("spec_avg_mpi100", Json::number(spec_avg));
    report.write();
    return 0;
}

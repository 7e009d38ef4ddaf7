/**
 * @file
 * Ablation: TLB design space under bloat. The paper's introduction
 * observes that bloated programs "use virtual memory in a more sparse
 * and fragmented manner, making their page-table entries less likely
 * to fit in TLBs" (and the authors studied this in [Nagle93/94]).
 * This bench sweeps TLB size and associativity over the IBS and SPEC
 * suites (instruction *and* data references) and reports misses per
 * 100 instructions.
 *
 * Expected shape: IBS needs several times the TLB reach of SPEC for
 * equal miss rates, and low-associativity TLBs suffer under the
 * multi-address-space Mach workloads.
 */

#include <iostream>

#include "obs/registry.h"
#include "obs/timer.h"
#include "sim/bench_report.h"
#include "sim/parallel.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/tlb_fanout.h"
#include "stats/table.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace {

using namespace ibs;

/** One TLB geometry of the sweep. */
struct Geometry
{
    TlbConfig config;
    std::string label;    ///< Table row, e.g. "64-entry/4-way".
    std::string instance; ///< Counter instance, e.g. "64e_4way".
};

/** One workload's single pass through every geometry. */
struct Pass
{
    uint64_t instructions = 0;
    std::vector<StackCounts> counts; ///< Per geometry, sweep order.
    double seconds = 0.0;            ///< Wall time of the whole pass.
};

Json
tlbConfigJson(const TlbConfig &config)
{
    return Json::object()
        .set("entries", Json::number(uint64_t{config.entries}))
        .set("assoc", Json::number(uint64_t{config.assoc}));
}

/** Generate `spec`'s I+D stream once and feed every geometry. */
Pass
runPass(WorkloadSpec spec, const std::vector<Geometry> &geometries,
        uint64_t n)
{
    spec.data.enabled = true;
    obs::ScopedTimer timer("tlb.pass " + spec.name);
    std::vector<TlbConfig> configs;
    for (const Geometry &g : geometries)
        configs.push_back(g.config);
    TlbFanout fanout(configs);
    Pass pass;
    WorkloadModel model(spec);
    TraceRecord rec;
    while (pass.instructions < n && model.next(rec)) {
        if (rec.isInstr())
            ++pass.instructions;
        fanout.access(rec.asid, rec.vaddr);
    }
    pass.counts = fanout.counts();
    timer.stop();
    pass.seconds = timer.seconds();
    return pass;
}

/** Misses per 100 instructions of geometry `g` over `passes`. */
double
suiteMpi(const std::vector<Pass> &passes, size_t g)
{
    uint64_t misses = 0, instrs = 0;
    for (const Pass &pass : passes) {
        misses += pass.counts[g].misses;
        instrs += pass.instructions;
    }
    return 100.0 * static_cast<double>(misses) /
        static_cast<double>(instrs);
}

/** Report cells (geometry-major, workloads in suite order) and
 *  per-geometry counters of one suite. */
void
reportSuite(BenchReport &report, const std::vector<WorkloadSpec> &suite,
            const std::vector<Pass> &passes, size_t g,
            const std::vector<Geometry> &geometries,
            const std::string &grid)
{
    for (size_t w = 0; w < suite.size(); ++w) {
        const Pass &pass = passes[w];
        const uint64_t misses = pass.counts[g].misses;
        const Json stats = Json::object()
            .set("instructions", Json::number(pass.instructions))
            .set("tlb_misses", Json::number(misses))
            .set("mpi100",
                 Json::number(pass.instructions
                                  ? 100.0 *
                                      static_cast<double>(misses) /
                                      static_cast<double>(
                                          pass.instructions)
                                  : 0.0));
        // A pass feeds every geometry at once; each cell is charged
        // an equal share of its wall time.
        report.addCell(suite[w].name,
                       tlbConfigJson(geometries[g].config),
                       stats,
                       pass.seconds /
                           static_cast<double>(geometries.size()),
                       pass.instructions, grid);
        if (obs::Registry::global().enabled()) {
            TlbFanout::publishCounters(
                obs::Registry::global(),
                grid + "." + geometries[g].instance, pass.counts[g]);
        }
    }
}

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_tlb");
    const uint64_t n = benchInstructions(500000);
    const auto ibs_suite = ibsSuite(OsType::Mach);
    const auto spec_suite = specSuite();

    std::vector<Geometry> geometries;
    for (uint32_t entries : {16u, 32u, 64u, 128u, 256u}) {
        for (uint32_t assoc : {4u, entries}) {
            const bool full = assoc == entries;
            geometries.push_back(Geometry{
                TlbConfig{entries, assoc, Replacement::LRU, true},
                std::to_string(entries) + "-entry/" +
                    (full ? "full" : std::to_string(assoc) + "-way"),
                std::to_string(entries) + "e_" +
                    (full ? "full" : std::to_string(assoc) + "way")});
        }
    }

    // One pass per workload of both suites, on the pool; each task
    // writes only its own slot.
    std::vector<Pass> spec_passes(spec_suite.size());
    std::vector<Pass> ibs_passes(ibs_suite.size());
    parallelFor(spec_suite.size() + ibs_suite.size(), sweepThreads(),
                [&](size_t i) {
        if (i < spec_suite.size()) {
            spec_passes[i] = runPass(spec_suite[i], geometries, n);
        } else {
            const size_t w = i - spec_suite.size();
            ibs_passes[w] = runPass(ibs_suite[w], geometries, n);
        }
    });

    TextTable table("Ablation: TLB misses per 100 instructions "
                    "(I+D references)");
    table.setHeader({"TLB", "SPEC", "IBS (Mach)"});
    for (size_t g = 0; g < geometries.size(); ++g) {
        reportSuite(report, spec_suite, spec_passes, g, geometries,
                    "spec92");
        reportSuite(report, ibs_suite, ibs_passes, g, geometries,
                    "ibs_mach");
        table.addRow({geometries[g].label,
                      TextTable::num(suiteMpi(spec_passes, g), 3),
                      TextTable::num(suiteMpi(ibs_passes, g), 3)});
    }
    std::cout << table.render();
    std::cout << "\nexpected shape: IBS needs a several-times larger "
                 "TLB than SPEC for equal miss\nrates; the R2000's "
                 "64-entry fully-associative design sits at the "
                 "knee for SPEC\nbut not for IBS.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

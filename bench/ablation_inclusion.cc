/**
 * @file
 * Ablation (§2 related work, [Baer87/Baer88]): what the inclusion
 * property costs in the paper's two-level design. The 8-KB L1 under
 * a 64-KB L2: inclusive hierarchies back-invalidate L1 lines on L2
 * evictions, so L2 conflicts leak into the L1. We report L1 and L2
 * misses per 100 instructions for the IBS average, inclusive vs
 * non-inclusive, across L2 associativities (associativity reduces L2
 * evictions of live lines, shrinking the inclusion tax).
 */

#include <iostream>
#include <iterator>

#include "cache/hierarchy.h"
#include "sim/bench_report.h"
#include "sim/cells.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

/** One (L2 associativity, workload) cell: both hierarchies. */
struct Pair
{
    uint64_t l1NonInclusive = 0;
    uint64_t l1Inclusive = 0;
    uint64_t backInvalidations = 0;
    uint64_t l2Inclusive = 0;
};

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_inclusion");
    const uint64_t n = benchInstructions(800000);
    SuiteTraces suite(ibsSuite(OsType::Mach), n);
    const size_t workloads = suite.count();

    const CacheConfig l1{8 * 1024, 1, 32, Replacement::LRU};
    const uint32_t assocs[] = {1, 2, 8};
    auto l2Of = [&](size_t i) {
        return CacheConfig{64 * 1024, assocs[i / workloads], 64,
                           Replacement::LRU};
    };
    const auto cells = runCells(
        std::size(assocs) * workloads,
        [&](size_t i) {
            return "inclusion " + std::to_string(assocs[i / workloads]) +
                "way " + suite.name(i % workloads);
        },
        [&](size_t i) {
            CacheHierarchy ni(l1, l2Of(i), false);
            CacheHierarchy incl(l1, l2Of(i), true);
            for (const FetchRun &run :
                 suite.runTrace(i % workloads, 32).runs) {
                for (uint32_t k = 0; k < run.count; ++k) {
                    const uint64_t a =
                        run.startVaddr + uint64_t{k} * kInstrBytes;
                    ni.access(a);
                    incl.access(a);
                }
            }
            return Pair{ni.l1Misses(), incl.l1Misses(),
                        incl.backInvalidations(), incl.l2Misses()};
        });

    TextTable table("Ablation: inclusion tax in the 8KB/64KB "
                    "hierarchy (IBS avg, per 100 instructions)");
    table.setHeader({"L2 assoc", "L1 MPI (non-incl)",
                     "L1 MPI (inclusive)", "back-invalidations",
                     "L2 MPI"});
    for (size_t a = 0; a < std::size(assocs); ++a) {
        uint64_t n_total = 0;
        uint64_t l1_ni = 0, l1_in = 0, backs = 0, l2m = 0;
        for (size_t w = 0; w < workloads; ++w) {
            const size_t i = a * workloads + w;
            const Pair &p = cells[i].result;
            const uint64_t instrs = suite.runTrace(w, 32).instructions;
            const Json config = Json::object()
                .set("l1", toJson(l1))
                .set("l2", toJson(l2Of(i)));
            const Json stats = Json::object()
                .set("instructions", Json::number(instrs))
                .set("l1_misses_noninclusive",
                     Json::number(p.l1NonInclusive))
                .set("l1_misses_inclusive", Json::number(p.l1Inclusive))
                .set("back_invalidations",
                     Json::number(p.backInvalidations))
                .set("l2_misses_inclusive",
                     Json::number(p.l2Inclusive));
            report.addCell(suite.name(w), config, stats,
                           cells[i].seconds, instrs, "inclusion",
                           std::to_string(assocs[a]) + "way");
            n_total += instrs;
            l1_ni += p.l1NonInclusive;
            l1_in += p.l1Inclusive;
            backs += p.backInvalidations;
            l2m += p.l2Inclusive;
        }
        const double scale = 100.0 / static_cast<double>(n_total);
        table.addRow({
            std::to_string(assocs[a]) + "-way",
            TextTable::num(l1_ni * scale, 3),
            TextTable::num(l1_in * scale, 3),
            TextTable::num(backs * scale, 3),
            TextTable::num(l2m * scale, 3),
        });
    }
    std::cout << table.render();
    std::cout << "\nexpected shape: inclusion adds L1 misses via "
                 "back-invalidation, most under a\ndirect-mapped L2; "
                 "associativity shrinks the tax — one more reason "
                 "for the\npaper's associative-L2 recommendation.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

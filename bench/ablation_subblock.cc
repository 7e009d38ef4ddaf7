/**
 * @file
 * Ablation (§5.2 footnote 1): a 64-byte line with 16-byte sub-block
 * allocation vs a 16-byte line with 3-line prefetch vs plain lines.
 * On a miss the sub-block cache refills only the missing sub-block
 * and the sub-blocks after it in the line (each 16-byte sub-block is
 * one beat at 16 B/cycle from the 6-cycle L2).
 *
 * Paper claim: the sub-block configuration performs almost as well
 * as 16-B + 3-prefetch — more pollution, cheaper refills.
 *
 * Also exercises the §5.2 pollution-control variant
 * (cachePrefetchOnlyIfUsed), which the paper reports *hurts* for
 * small prefetch counts and small/medium lines.
 */

#include <iostream>

#include "cache/subblock.h"
#include "core/fetch_config.h"
#include "obs/registry.h"
#include "sim/bench_report.h"
#include "sim/cells.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/table.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

/** CPIinstr of the sub-block design over one trace. */
double
subBlockCpi(const RunTrace &runs)
{
    SubBlockCache cache(CacheConfig{8 * 1024, 1, 64,
                                    Replacement::LRU}, 16);
    const MemoryTiming fill{6, 16};
    uint64_t stall = 0;
    for (const FetchRun &run : runs.runs) {
        for (uint32_t k = 0; k < run.count; ++k) {
            const SubBlockResult r = cache.access(
                run.startVaddr + uint64_t{k} * kInstrBytes);
            if (!r.hit)
                stall += fill.fillCycles(uint64_t{r.filled} * 16);
        }
    }
    if (obs::Registry::global().enabled())
        cache.publishCounters(obs::Registry::global(), "l1");
    return static_cast<double>(stall) /
        static_cast<double>(runs.instructions);
}

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_subblock");
    const uint64_t n = benchInstructions();
    SuiteTraces suite(ibsSuite(OsType::Mach), n);

    FetchConfig plain16;
    plain16.l1 = CacheConfig{8 * 1024, 1, 16, Replacement::LRU};
    plain16.l1Fill = MemoryTiming{6, 16};

    FetchConfig plain64 = plain16;
    plain64.l1.lineBytes = 64;

    FetchConfig pf3 = plain16;
    pf3.prefetchLines = 3;

    FetchConfig pf3_bypass = pf3;
    pf3_bypass.bypass = true;

    FetchConfig pf3_pollution = pf3_bypass;
    pf3_pollution.cachePrefetchOnlyIfUsed = true;

    const std::vector<FetchConfig> grid = {
        plain16, plain64, pf3, pf3_bypass, pf3_pollution};
    const std::vector<std::string> labels = {
        "plain16", "plain64", "pf3", "pf3_bypass", "pf3_pollution"};
    const SweepResult result = runSweep(suite, grid);
    report.addSweep("fetch_configs", suite, grid, result, labels);
    auto cpiAt = [&](size_t c) {
        return result.suite(c).cpiInstr();
    };

    // The 64-B run traces are the ones runSweep built for plain64.
    const auto sub_cells = runCells(
        suite.count(),
        [&](size_t i) { return "sub_block 16B " + suite.name(i); },
        [&](size_t i) { return subBlockCpi(suite.runTrace(i, 64)); });
    double sub = 0;
    for (size_t i = 0; i < suite.count(); ++i) {
        const double cpi = sub_cells[i].result;
        const uint64_t instrs = suite.runTrace(i, 64).instructions;
        const Json config = Json::object()
            .set("l1", toJson(CacheConfig{8 * 1024, 1, 64,
                                          Replacement::LRU}))
            .set("sub_block_bytes", Json::number(uint64_t{16}));
        const Json stats = Json::object()
            .set("instructions", Json::number(instrs))
            .set("cpi_instr", Json::number(cpi));
        report.addCell(suite.name(i), config, stats,
                       sub_cells[i].seconds, instrs, "sub_block",
                       "subblock64_16");
        sub += cpi;
    }
    sub /= static_cast<double>(suite.count());

    TextTable table("Ablation: sub-block fill vs prefetch "
                    "(L1 CPIinstr, IBS avg, 8KB DM)");
    table.setHeader({"configuration", "CPIinstr"});
    table.addRow({"16B line, no prefetch",
                  TextTable::num(cpiAt(0))});
    table.addRow({"64B line, no prefetch",
                  TextTable::num(cpiAt(1))});
    table.addRow({"16B line + 3-line prefetch",
                  TextTable::num(cpiAt(2))});
    table.addRow({"64B line, 16B sub-blocks", TextTable::num(sub)});
    table.addRule();
    table.addRow({"16B + 3-pf + bypass",
                  TextTable::num(cpiAt(3))});
    table.addRow({"16B + 3-pf + bypass, cache-only-if-used",
                  TextTable::num(cpiAt(4))});
    std::cout << table.render();
    std::cout << "\npaper shape: sub-block ~ 16B+3pf (both beat "
                 "plain 64B); the cache-only-if-used\npollution "
                 "control *hurts* at this configuration.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}

/**
 * @file
 * Unit tests for the experiment runners and the Tapeworm driver.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "cache/cache.h"
#include "materialize.h"
#include "sim/runner.h"
#include "sim/tapeworm.h"
#include "trace/run_trace.h"
#include "vm/address_space.h"

namespace ibs {
namespace {

TEST(Runner, RunFetchProducesStats)
{
    WorkloadModel model(makeSpec(SpecBenchmark::Espresso));
    FetchEngine engine(economyBaseline());
    const FetchStats s = engine.run(model, 50000);
    EXPECT_EQ(s.instructions, 50000u);
    EXPECT_GT(s.l1Misses, 0u);
    EXPECT_GT(s.cpiInstr(), 0.0);
}

TEST(Runner, SuiteTracesShapes)
{
    SuiteTraces traces(specSuite(), 10000);
    EXPECT_EQ(traces.count(), allSpecBenchmarks().size());
    for (size_t i = 0; i < traces.count(); ++i) {
        EXPECT_EQ(traces.runTrace(i, 32).instructions, 10000u);
        EXPECT_FALSE(traces.name(i).empty());
    }
}

TEST(Runner, SuiteRunMergesAllWorkloads)
{
    SuiteTraces traces(specSuite(), 5000);
    const FetchStats s = traces.runSuite(economyBaseline());
    EXPECT_EQ(s.instructions, 5000u * traces.count());
}

TEST(Runner, RunOneMatchesManualEngine)
{
    const WorkloadSpec spec = makeSpec(SpecBenchmark::Eqntott);
    SuiteTraces traces({spec}, 20000);
    const FetchConfig config = highPerfBaseline();
    const FetchStats a = traces.runOne(0, config);

    FetchEngine engine(config);
    for (uint64_t addr : materialize(spec, 20000))
        engine.fetch(addr);
    const FetchStats b = engine.stats();
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Runner, BenchInstructionsEnvOverride)
{
    unsetenv("IBS_BENCH_INSTR");
    EXPECT_EQ(benchInstructions(123), 123u);
    setenv("IBS_BENCH_INSTR", "4567", 1);
    EXPECT_EQ(benchInstructions(123), 4567u);
    setenv("IBS_BENCH_INSTR", "garbage", 1);
    EXPECT_EQ(benchInstructions(123), 123u);
    unsetenv("IBS_BENCH_INSTR");
}

TEST(Runner, ParseEnvCountRejectsMalformedValues)
{
    // strtoull alone would accept "45x" as 45 and saturate silently
    // on overflow; the hardened parser must fall back instead.
    setenv("IBS_BENCH_INSTR", "45x", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "99999999999999999999999", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "-5", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "0", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "12 34", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "890", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 890u);
    unsetenv("IBS_BENCH_INSTR");
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
}

TEST(Tapeworm, ProducesRequestedTrials)
{
    TapewormConfig config;
    config.instructions = 30000;
    config.trials = 4;
    const TapewormResult r =
        runTapeworm(makeSpec(SpecBenchmark::Espresso), config);
    EXPECT_EQ(r.cpiInstr.count(), 4u);
    EXPECT_GT(r.cpiInstr.mean(), 0.0);
    EXPECT_DOUBLE_EQ(r.cpiInstr.mean(),
                     r.mpi100.mean() / 100.0 * config.missPenalty);
}

TEST(Tapeworm, RandomMappingVaries)
{
    // With a physically-indexed cache larger than a page, random
    // page placement must produce run-to-run variation (Figure 5).
    TapewormConfig config;
    config.cache = CacheConfig{32 * 1024, 1, 32, Replacement::LRU};
    config.instructions = 60000;
    config.trials = 5;
    config.policy = PagePolicy::Random;
    const TapewormResult r =
        runTapeworm(makeIbs(IbsBenchmark::Verilog, OsType::Mach),
                    config);
    EXPECT_GT(r.cpiInstr.stddev(), 0.0);
}

TEST(Tapeworm, PageColoringIsDeterministicAcrossTrials)
{
    // Page coloring pins the *cache index bits* of every page, so
    // the conflict pattern — and hence CPIinstr — should be nearly
    // identical across trials even though frames differ.
    TapewormConfig config;
    config.cache = CacheConfig{32 * 1024, 1, 32, Replacement::LRU};
    config.instructions = 60000;
    config.trials = 5;

    config.policy = PagePolicy::Random;
    const TapewormResult random = runTapeworm(
        makeIbs(IbsBenchmark::Verilog, OsType::Mach), config);

    config.policy = PagePolicy::PageColoring;
    const TapewormResult colored = runTapeworm(
        makeIbs(IbsBenchmark::Verilog, OsType::Mach), config);

    EXPECT_LT(colored.cpiInstr.stddev(),
              random.cpiInstr.stddev() + 1e-9);
    EXPECT_NEAR(colored.cpiInstr.stddev(), 0.0, 1e-6);
}

TEST(Tapeworm, FullyAssociativeCacheImmuneToPlacement)
{
    // A fully-associative cache has a single set: page placement
    // cannot change its behaviour at all.
    TapewormConfig config;
    config.cache = CacheConfig{16 * 1024, 512, 32, Replacement::LRU};
    config.instructions = 40000;
    config.trials = 3;
    const TapewormResult r = runTapeworm(
        makeIbs(IbsBenchmark::Gs, OsType::Mach), config);
    EXPECT_NEAR(r.cpiInstr.stddev(), 0.0, 1e-9);
}

/**
 * The per-instruction Tapeworm loop the grid driver replaced, kept as
 * its oracle: every trial translates and probes each instruction
 * fetch on its own.
 */
TapewormResult
perInstructionTapeworm(const WorkloadSpec &spec,
                       const TapewormConfig &config, uint64_t base_seed)
{
    std::vector<TraceRecord> trace;
    WorkloadModel model(spec);
    TraceRecord rec;
    while (trace.size() < config.instructions && model.next(rec)) {
        if (rec.isInstr())
            trace.push_back(rec);
    }
    TapewormResult result;
    for (uint32_t trial = 0; trial < config.trials; ++trial) {
        MemoryMap map(makeAllocator(config.policy, config.frames,
                                    config.cache.colors(),
                                    base_seed + trial));
        Cache cache(config.cache);
        uint64_t misses = 0;
        for (const TraceRecord &r : trace) {
            if (!cache.access(map.translate(r.asid, r.vaddr)))
                ++misses;
        }
        const double n = static_cast<double>(trace.size());
        const double mpi = n > 0 ? static_cast<double>(misses) / n : 0;
        result.mpi100.add(mpi * 100.0);
        result.cpiInstr.add(mpi * config.missPenalty);
    }
    return result;
}

/** Sizes x 1/2/4-way x all three page policies, mixed line sizes and
 *  trial counts, so groups share colors across sizes and ways. */
std::vector<TapewormConfig>
mixedGrid()
{
    std::vector<TapewormConfig> grid;
    for (PagePolicy policy : {PagePolicy::Random, PagePolicy::BinHopping,
                              PagePolicy::PageColoring}) {
        for (uint64_t kb : {4u, 8u, 16u, 64u}) {
            for (uint32_t assoc : {1u, 2u, 4u}) {
                TapewormConfig config;
                config.cache = CacheConfig{kb * 1024, assoc,
                                           kb == 16 ? 64u : 32u,
                                           Replacement::LRU};
                config.policy = policy;
                config.trials = assoc == 2 ? 2 : 3;
                config.instructions = 20000;
                grid.push_back(config);
            }
        }
    }
    return grid;
}

void
expectGridMatchesOracle(const WorkloadSpec &spec)
{
    const std::vector<TapewormConfig> grid = mixedGrid();
    const std::vector<TapewormResult> results =
        runTapewormGrid(spec, grid, 0x51);
    ASSERT_EQ(results.size(), grid.size());
    for (size_t c = 0; c < grid.size(); ++c) {
        SCOPED_TRACE(grid[c].cache.toString() + " " +
                     policyName(grid[c].policy));
        const TapewormResult want =
            perInstructionTapeworm(spec, grid[c], 0x51);
        ASSERT_EQ(results[c].cpiInstr.count(), grid[c].trials);
        // Exact: the same doubles, folded in the same order.
        EXPECT_EQ(results[c].cpiInstr.mean(), want.cpiInstr.mean());
        EXPECT_EQ(results[c].cpiInstr.stddev(), want.cpiInstr.stddev());
        EXPECT_EQ(results[c].mpi100.mean(), want.mpi100.mean());
        EXPECT_EQ(results[c].mpi100.stddev(), want.mpi100.stddev());
    }
}

TEST(TapewormGrid, MatchesPerInstructionLoopAtOneAndFourThreads)
{
    const WorkloadSpec spec = makeIbs(IbsBenchmark::Verilog,
                                      OsType::Mach);
    for (const char *threads : {"1", "4"}) {
        SCOPED_TRACE(std::string("IBS_THREADS=") + threads);
        setenv("IBS_THREADS", threads, 1);
        expectGridMatchesOracle(spec);
    }
    unsetenv("IBS_THREADS");
}

TEST(TapewormGrid, MatchesPerInstructionLoopWithDataReferences)
{
    // Data references force record-at-a-time generation.
    WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    spec.data.enabled = true;
    expectGridMatchesOracle(spec);
}

TEST(TapewormGrid, RejectsLinesLargerThanAPage)
{
    TapewormConfig config;
    config.cache = CacheConfig{64 * 1024, 1, 8192, Replacement::LRU};
    EXPECT_THROW(runTapewormGrid(makeSpec(SpecBenchmark::Espresso),
                                 {config}),
                 std::invalid_argument);
}

} // namespace
} // namespace ibs

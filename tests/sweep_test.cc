/**
 * @file
 * Tests for the parallel sweep executor: the parallel path must be
 * bit-for-bit identical to serial runOne/runSuite, regardless of
 * worker count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "sim/sweep.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

void
expectEqualStats(const FetchStats &a, const FetchStats &b,
                 const std::string &label)
{
    EXPECT_EQ(a.instructions, b.instructions) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.stallCyclesL1, b.stallCyclesL1) << label;
    EXPECT_EQ(a.stallCyclesL2, b.stallCyclesL2) << label;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << label;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.l2DataAccesses, b.l2DataAccesses) << label;
    EXPECT_EQ(a.l2DataMisses, b.l2DataMisses) << label;
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued) << label;
    EXPECT_EQ(a.prefetchesUsed, b.prefetchesUsed) << label;
    EXPECT_EQ(a.streamBufferHits, b.streamBufferHits) << label;
    EXPECT_EQ(a.bypassHits, b.bypassHits) << label;
}

/** A small but policy-diverse config grid. */
std::vector<FetchConfig>
smallGrid()
{
    std::vector<FetchConfig> grid;
    grid.push_back(economyBaseline());
    grid.push_back(highPerfBaseline());
    grid.push_back(withOnChipL2(economyBaseline(), 64 * 1024, 64, 2));

    FetchConfig pf = withOnChipL2(highPerfBaseline(), 64 * 1024, 64, 8);
    pf.l1.lineBytes = 16;
    pf.prefetchLines = 3;
    pf.bypass = true;
    grid.push_back(pf);

    FetchConfig pipe = economyBaseline();
    pipe.l1Fill = MemoryTiming{6, 32};
    pipe.pipelined = true;
    pipe.streamBufferLines = 6;
    grid.push_back(pipe);
    return grid;
}

TEST(Sweep, ParallelCellsMatchSerialRunOneExactly)
{
    SuiteTraces suite(specSuite(), 20000);
    const std::vector<FetchConfig> grid = smallGrid();

    const SweepResult result = runSweep(suite, grid, 4);
    ASSERT_EQ(result.configCount(), grid.size());
    ASSERT_EQ(result.workloadCount(), suite.count());

    for (size_t c = 0; c < grid.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            const FetchStats serial = suite.runOne(w, grid[c]);
            expectEqualStats(result.cell(c, w), serial,
                             "config " + std::to_string(c) +
                                 " workload " + suite.name(w));
        }
    }
}

TEST(Sweep, SuiteMergeMatchesRunSuite)
{
    SuiteTraces suite(specSuite(), 15000);
    const std::vector<FetchConfig> grid = smallGrid();
    const SweepResult swept = runSweep(suite, grid, 4);
    ASSERT_EQ(swept.configCount(), grid.size());
    for (size_t c = 0; c < grid.size(); ++c)
        expectEqualStats(swept.suite(c), suite.runSuite(grid[c]),
                         "config " + std::to_string(c));
}

TEST(Sweep, OneThreadEqualsManyThreads)
{
    SuiteTraces suite(specSuite(), 15000);
    const std::vector<FetchConfig> grid = smallGrid();
    const SweepResult serial = runSweep(suite, grid, 1);
    const SweepResult parallel = runSweep(suite, grid, 8);
    for (size_t c = 0; c < grid.size(); ++c)
        for (size_t w = 0; w < suite.count(); ++w)
            expectEqualStats(serial.cell(c, w), parallel.cell(c, w),
                             "cell " + std::to_string(c) + "," +
                                 std::to_string(w));
}

TEST(Sweep, RecordsPerCellTiming)
{
    SuiteTraces suite(specSuite(), 15000);
    const std::vector<FetchConfig> grid = smallGrid();
    const SweepResult result = runSweep(suite, grid, 2);

    double total = 0.0;
    for (size_t c = 0; c < grid.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            const CellTiming &t = result.timing(c, w);
            EXPECT_GE(t.wallSeconds, 0.0);
            // The timing rides alongside the stats at the same index:
            // its instruction count must be the cell's own.
            EXPECT_EQ(t.instructions,
                      result.cell(c, w).instructions)
                << "cell " << c << "," << w;
            if (t.wallSeconds > 0.0) {
                EXPECT_DOUBLE_EQ(
                    t.instructionsPerSecond(),
                    static_cast<double>(t.instructions) /
                        t.wallSeconds);
            }
            total += t.wallSeconds;
        }
    }
    EXPECT_DOUBLE_EQ(result.totalCellSeconds(), total);

    CellTiming untimed;
    untimed.instructions = 1000;
    EXPECT_EQ(untimed.instructionsPerSecond(), 0.0);
}

TEST(Sweep, EmptyGrid)
{
    SuiteTraces suite({makeSpec(SpecBenchmark::Espresso)}, 5000);
    const SweepResult result = runSweep(suite, {}, 4);
    EXPECT_EQ(result.configCount(), 0u);
}

TEST(Sweep, InvalidConfigThrowsBeforeRunning)
{
    SuiteTraces suite({makeSpec(SpecBenchmark::Espresso)}, 5000);
    FetchConfig bad = economyBaseline();
    bad.streamBufferLines = 4; // Stream buffer without pipelining.
    EXPECT_THROW(runSweep(suite, {economyBaseline(), bad}, 4),
                 std::invalid_argument);
}

TEST(Sweep, ThreadsEnvOverride)
{
    unsetenv("IBS_THREADS");
    const unsigned fallback = sweepThreads();
    EXPECT_GE(fallback, 1u);

    setenv("IBS_THREADS", "3", 1);
    EXPECT_EQ(sweepThreads(), 3u);

    // Malformed values fall back (with a warning on stderr).
    setenv("IBS_THREADS", "3threads", 1);
    EXPECT_EQ(sweepThreads(), fallback);
    setenv("IBS_THREADS", "0", 1);
    EXPECT_EQ(sweepThreads(), fallback);
    setenv("IBS_THREADS", "-2", 1);
    EXPECT_EQ(sweepThreads(), fallback);
    unsetenv("IBS_THREADS");
}

} // namespace
} // namespace ibs

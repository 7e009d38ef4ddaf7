/**
 * @file
 * Parity between the two replay drivers: FetchEngine::run over a
 * record stream and SuiteTraces::runOne over a pre-materialized flat
 * trace must agree exactly on instruction-only workloads — the
 * SuiteTraces path merely strips the TraceRecord framing (and, by
 * default, compresses the addresses into runs).
 *
 * The deliberate asymmetry is also pinned down: data records reach
 * FetchEngine::dataTouch only through run(). SuiteTraces stores
 * instruction addresses only, so a unified-L2 experiment that needs
 * the data stream (bench/ablation_unified_l2) must drive run() — if
 * someone rewires it onto the flat-trace runner, the second test
 * here is the tripwire that the data stream went missing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/fetch_engine.h"
#include "sim/runner.h"
#include "workload/ibs.h"
#include "workload/model.h"

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

/** Configs spanning the interface policies, incl. a unified L2. */
std::vector<std::pair<std::string, FetchConfig>>
parityConfigs()
{
    std::vector<std::pair<std::string, FetchConfig>> configs;
    configs.emplace_back("economy", economyBaseline());

    FetchConfig pf = economyBaseline();
    pf.l1.lineBytes = 16;
    pf.prefetchLines = 3;
    pf.bypass = true;
    configs.emplace_back("prefetch_bypass", pf);

    FetchConfig unified =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    unified.l2Unified = true;
    configs.emplace_back("unified_l2", unified);
    return configs;
}

TEST(RunnerParity, RunAndRunOneAgreeOnInstructionOnlyTraces)
{
    constexpr uint64_t kInstructions = 30000;
    const WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    ASSERT_FALSE(spec.data.enabled)
        << "parity premise: specs are instruction-only by default";

    SuiteTraces suite({spec}, kInstructions);
    ASSERT_EQ(
        suite.runTrace(0, economyBaseline().l1.lineBytes).instructions,
        kInstructions);

    for (const auto &[name, config] : parityConfigs()) {
        WorkloadModel model(spec);
        FetchEngine engine(config);
        const FetchStats streamed = engine.run(model, kInstructions);
        const FetchStats flat = suite.runOne(0, config);
        expectEqualStats(streamed, flat, name);
        // Instruction-only input: nothing may have reached the
        // unified L2's data side on either path.
        EXPECT_EQ(streamed.l2DataAccesses, 0u) << name;
    }
}

TEST(RunnerParity, DataRecordsReachDataTouchOnlyViaRun)
{
    constexpr uint64_t kInstructions = 30000;
    WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    spec.data.enabled = true;

    FetchConfig unified =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    unified.l2Unified = true;

    // run() consumes the merged stream: data records must land in
    // dataTouch and perturb the L2.
    WorkloadModel model(spec);
    FetchEngine engine(unified);
    const FetchStats streamed = engine.run(model, kInstructions);
    EXPECT_EQ(streamed.instructions, kInstructions);
    EXPECT_GT(streamed.l2DataAccesses, 0u);

    // The flat-trace runner stores instruction addresses only — the
    // data stream is dropped at materialization, so runOne cannot
    // model a unified L2's data competition. This is intentional and
    // documented; the EXPECT below is the tripwire for anyone
    // rewiring the unified-L2 bench onto SuiteTraces.
    SuiteTraces suite({spec}, kInstructions);
    const FetchStats flat = suite.runOne(0, unified);
    EXPECT_EQ(flat.l2DataAccesses, 0u);
    EXPECT_EQ(flat.instructions, kInstructions);
    // And the dropped data stream is visible in the stats: the
    // instruction-side L2 behaviour differs once data competes.
    EXPECT_NE(streamed.l2Misses, flat.l2Misses);
}

} // namespace
} // namespace ibs

/**
 * @file
 * Unit tests for the Three-Cs miss classifier.
 */

#include <gtest/gtest.h>

#include "cache/three_c.h"
#include "materialize.h"
#include "stats/rng.h"
#include "trace/run_trace.h"

namespace ibs {
namespace {

TEST(ThreeC, ColdStreamIsAllCompulsory)
{
    ThreeCClassifier c(1024, 32);
    for (uint64_t a = 0; a < 512; a += 32)
        c.access(a);
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_EQ(b.accesses, 16u);
    EXPECT_EQ(b.compulsory, 16u);
    EXPECT_EQ(b.capacity, 0u);
    EXPECT_EQ(b.conflict, 0u);
}

TEST(ThreeC, RepeatedFitIsNoMiss)
{
    ThreeCClassifier c(1024, 32);
    for (int round = 0; round < 3; ++round)
        for (uint64_t a = 0; a < 512; a += 32)
            c.access(a);
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_EQ(b.total(), 16u); // Only the cold pass.
}

TEST(ThreeC, PingPongIsConflict)
{
    // Two lines mapping to the same direct-mapped set, alternating:
    // the 8-way proxy holds both, the DM cache ping-pongs.
    ThreeCClassifier c(1024, 32, 1, 8);
    for (int i = 0; i < 100; ++i) {
        c.access(0x0);
        c.access(0x400);
    }
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_EQ(b.compulsory, 2u);
    EXPECT_EQ(b.capacity, 0u);
    EXPECT_GT(b.conflict, 150u);
}

TEST(ThreeC, CyclicOverflowIsCapacity)
{
    // Cycle over 2x the cache in lines: both DM and 8-way LRU miss
    // every access after warmup -> capacity dominates.
    ThreeCClassifier c(1024, 32, 1, 8);
    for (int round = 0; round < 10; ++round)
        for (uint64_t a = 0; a < 2048; a += 32)
            c.access(a);
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_EQ(b.compulsory, 64u);
    EXPECT_GT(b.capacity, 500u);
}

TEST(ThreeC, Mpi100Arithmetic)
{
    ThreeCClassifier c(1024, 32);
    for (uint64_t a = 0; a < 32 * 10; a += 32)
        c.access(a); // 10 compulsory misses in 10 accesses.
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_DOUBLE_EQ(b.totalMpi100(), 100.0);
    EXPECT_DOUBLE_EQ(b.compulsoryMpi100(), 100.0);
    EXPECT_DOUBLE_EQ(b.capacityMpi100(), 0.0);
}

TEST(ThreeC, ComponentsSumToClassifiedMisses)
{
    // A spread-out stream where direct-mapped conflicts genuinely
    // dominate (working set ~16 KB scattered over 256 KB in a 4-KB
    // cache): the proxy misses less than the DM cache and the three
    // components exactly reconstruct the DM miss count.
    Rng rng(5);
    ThreeCClassifier c(4096, 32);
    std::vector<uint64_t> hot;
    for (int i = 0; i < 64; ++i)
        hot.push_back(rng.nextBounded(1 << 18) & ~31ull);
    for (int i = 0; i < 50000; ++i) {
        const uint64_t base = hot[rng.nextBounded(hot.size())];
        for (uint64_t o = 0; o < 64; o += 4)
            c.access(base + o);
    }
    const ThreeCBreakdown b = c.breakdown();
    // conflict = DM - proxy, capacity = proxy - compulsory, so the
    // three components reconstruct the measured cache's misses.
    EXPECT_GE(c.measuredMisses(), c.proxyMisses());
    EXPECT_EQ(b.total(), c.measuredMisses());
    EXPECT_GT(b.conflict, 0u);
}

void
expectSameBreakdown(const ThreeCClassifier &got,
                    const ThreeCClassifier &want)
{
    const ThreeCBreakdown a = got.breakdown();
    const ThreeCBreakdown b = want.breakdown();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.compulsory, b.compulsory);
    EXPECT_EQ(a.capacity, b.capacity);
    EXPECT_EQ(a.conflict, b.conflict);
    EXPECT_EQ(got.measuredMisses(), want.measuredMisses());
    EXPECT_EQ(got.proxyMisses(), want.proxyMisses());
}

TEST(ThreeC, AccessRunEqualsPerAccess)
{
    // Sequential runs of 1-8 fetches from a hot set scattered over
    // 256 KB: many runs' first fetch misses (cold, conflict and
    // capacity misses) and many runs hit whole.
    for (uint32_t assoc : {1u, 2u}) {
        Rng rng(11 + assoc);
        std::vector<uint64_t> hot;
        for (int i = 0; i < 96; ++i)
            hot.push_back(rng.nextBounded(1 << 18) & ~3ull);
        std::vector<uint64_t> flat;
        for (int i = 0; i < 20000; ++i) {
            const uint64_t start = hot[rng.nextBounded(hot.size())];
            const uint64_t len = 1 + rng.nextBounded(8);
            for (uint64_t k = 0; k < len; ++k)
                flat.push_back(start + 4 * k);
        }
        ThreeCClassifier per_access(4096, 32, assoc, 8);
        for (uint64_t addr : flat)
            per_access.access(addr);
        ThreeCClassifier per_run(4096, 32, assoc, 8);
        for (const FetchRun &run : compressRuns(flat, 32).runs)
            per_run.accessRun(run.startVaddr, run.count);
        SCOPED_TRACE(assoc);
        EXPECT_GT(per_access.breakdown().conflict, 0u);
        expectSameBreakdown(per_run, per_access);
    }
}

TEST(ThreeC, AccessRunWhoseFirstAccessMisses)
{
    ThreeCClassifier per_run(1024, 32, 1, 8);
    ThreeCClassifier per_access(1024, 32, 1, 8);
    // Cold run, then a conflicting line that evicts it from the DM
    // cache only, then the first line again: each run's first fetch
    // misses somewhere.
    for (uint64_t start : {0x0ull, 0x400ull, 0x4ull}) {
        per_run.accessRun(start, 5);
        for (uint64_t k = 0; k < 5; ++k)
            per_access.access(start + 4 * k);
    }
    per_run.accessRun(0x8, 0); // Empty run: no effect.
    expectSameBreakdown(per_run, per_access);
    EXPECT_EQ(per_run.breakdown().accesses, 15u);
    EXPECT_EQ(per_run.breakdown().compulsory, 2u);
    EXPECT_EQ(per_run.measuredMisses(), 3u);
    EXPECT_EQ(per_run.proxyMisses(), 2u);
}

} // namespace
} // namespace ibs

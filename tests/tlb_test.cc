/**
 * @file
 * Unit tests for the TLB model.
 */

#include <gtest/gtest.h>

#include "sim/tlb_fanout.h"
#include "tlb/tlb.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace ibs {
namespace {

TlbConfig
cfg(uint32_t entries, uint32_t assoc,
    Replacement repl = Replacement::LRU, bool kseg0 = true)
{
    return TlbConfig{entries, assoc, repl, kseg0};
}

TEST(TlbConfig, Validation)
{
    EXPECT_NO_THROW(cfg(64, 64).validate());
    EXPECT_NO_THROW(cfg(64, 4).validate());
    EXPECT_THROW(cfg(0, 1).validate(), std::invalid_argument);
    EXPECT_THROW(cfg(64, 5).validate(), std::invalid_argument);
    EXPECT_THROW(cfg(96, 8).validate(), std::invalid_argument);
    EXPECT_EQ(cfg(64, 4).numSets(), 16u);
    EXPECT_EQ(cfg(64, 64).toString(), "64-entry/64-way/LRU");
}

TEST(Tlb, MissThenHitSamePage)
{
    Tlb tlb(cfg(64, 64));
    EXPECT_FALSE(tlb.access(1, 0x00400000));
    EXPECT_TRUE(tlb.access(1, 0x00400ffc)); // Same 4-KB page.
    EXPECT_FALSE(tlb.access(1, 0x00401000)); // Next page.
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, AsidTagged)
{
    Tlb tlb(cfg(64, 64));
    EXPECT_FALSE(tlb.access(1, 0x00400000));
    // Same VA, different task: separate mapping.
    EXPECT_FALSE(tlb.access(2, 0x00400000));
    EXPECT_TRUE(tlb.access(1, 0x00400000));
    EXPECT_TRUE(tlb.access(2, 0x00400000));
}

TEST(Tlb, Kseg0Bypass)
{
    Tlb tlb(cfg(64, 64));
    EXPECT_TRUE(tlb.access(0, 0x80031000));
    EXPECT_EQ(tlb.accesses(), 0u); // Not even counted.
    EXPECT_TRUE(tlb.contains(0, 0x80031000));
}

TEST(Tlb, Kseg0BypassDisabled)
{
    Tlb tlb(cfg(64, 64, Replacement::LRU, false));
    EXPECT_FALSE(tlb.access(0, 0x80031000));
    EXPECT_TRUE(tlb.access(0, 0x80031ffc));
    EXPECT_EQ(tlb.accesses(), 2u);
}

TEST(Tlb, LruReplacementInFullTlb)
{
    Tlb tlb(cfg(4, 4));
    for (uint64_t p = 0; p < 4; ++p)
        tlb.access(1, p * PAGE_SIZE);
    // Touch page 0, insert page 4: page 1 (LRU) evicted.
    EXPECT_TRUE(tlb.access(1, 0));
    EXPECT_FALSE(tlb.access(1, 4 * PAGE_SIZE));
    EXPECT_TRUE(tlb.contains(1, 0));
    EXPECT_FALSE(tlb.contains(1, PAGE_SIZE));
}

TEST(Tlb, SetAssociativeIndexing)
{
    // 8 entries, 2-way: 4 sets; pages 4 apart share a set.
    Tlb tlb(cfg(8, 2));
    EXPECT_FALSE(tlb.access(1, 0));
    EXPECT_FALSE(tlb.access(1, 4 * PAGE_SIZE));
    EXPECT_FALSE(tlb.access(1, 8 * PAGE_SIZE)); // Evicts page 0.
    EXPECT_FALSE(tlb.access(1, 0));
    EXPECT_EQ(tlb.misses(), 4u);
}

TEST(Tlb, FlushAsid)
{
    Tlb tlb(cfg(64, 64));
    tlb.access(1, 0);
    tlb.access(2, 0);
    tlb.flushAsid(1);
    EXPECT_FALSE(tlb.contains(1, 0));
    EXPECT_TRUE(tlb.contains(2, 0));
}

TEST(Tlb, FlushAllAndResetStats)
{
    Tlb tlb(cfg(64, 64));
    tlb.access(1, 0);
    tlb.flushAll();
    EXPECT_FALSE(tlb.contains(1, 0));
    EXPECT_GT(tlb.accesses(), 0u);
    tlb.resetStats();
    EXPECT_EQ(tlb.accesses(), 0u);
    EXPECT_DOUBLE_EQ(tlb.missRatio(), 0.0);
}

TEST(Tlb, R2000ReachIs256KB)
{
    // 64 entries x 4-KB pages: sequential touch of 256 KB fits; the
    // next page past that evicts the first.
    Tlb tlb(cfg(64, 64));
    for (uint64_t p = 0; p < 64; ++p)
        tlb.access(1, p * PAGE_SIZE);
    for (uint64_t p = 0; p < 64; ++p)
        EXPECT_TRUE(tlb.contains(1, p * PAGE_SIZE));
    tlb.access(1, 64 * PAGE_SIZE);
    EXPECT_FALSE(tlb.contains(1, 0));
}

TEST(TlbFanout, EqualsFreshTlbPerConfig)
{
    // The ablation_tlb grid plus odd shapes, over a Mach workload's
    // I+D stream (several address spaces, kseg0 kernel references).
    std::vector<TlbConfig> configs;
    for (uint32_t entries : {16u, 32u, 64u, 128u, 256u}) {
        configs.push_back(cfg(entries, 4));
        configs.push_back(cfg(entries, entries));
    }
    configs.push_back(cfg(8, 1));
    configs.push_back(cfg(64, 2));
    configs.push_back(cfg(64, 4)); // Duplicate: independent counts.

    WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    spec.data.enabled = true;
    WorkloadModel model(spec);
    TlbFanout fanout(configs);
    std::vector<Tlb> tlbs;
    for (const TlbConfig &config : configs)
        tlbs.emplace_back(config);
    TraceRecord rec;
    for (int i = 0; i < 200000 && model.next(rec); ++i) {
        fanout.access(rec.asid, rec.vaddr);
        for (Tlb &tlb : tlbs)
            tlb.access(rec.asid, rec.vaddr);
    }
    const std::vector<StackCounts> counts = fanout.counts();
    ASSERT_EQ(counts.size(), configs.size());
    for (size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(configs[c].toString());
        EXPECT_GT(tlbs[c].misses(), 0u);
        EXPECT_EQ(counts[c].hits, tlbs[c].hits());
        EXPECT_EQ(counts[c].misses, tlbs[c].misses());
    }
}

TEST(TlbFanout, AddressSpacesAndKseg0AsInTlb)
{
    // One virtual page in two address spaces is two entries; kseg0
    // references are not counted at all.
    const std::vector<TlbConfig> configs = {cfg(16, 4), cfg(16, 16)};
    TlbFanout fanout(configs);
    std::vector<Tlb> tlbs(configs.begin(), configs.end());
    for (int round = 0; round < 3; ++round) {
        for (Asid asid : {Asid{1}, Asid{2}}) {
            fanout.access(asid, 0x00400000);
            fanout.access(asid, 0x80031000);
            for (Tlb &tlb : tlbs) {
                tlb.access(asid, 0x00400000);
                tlb.access(asid, 0x80031000);
            }
        }
    }
    const std::vector<StackCounts> counts = fanout.counts();
    for (size_t c = 0; c < configs.size(); ++c) {
        EXPECT_EQ(counts[c].misses, 2u);
        EXPECT_EQ(counts[c].hits, 4u);
        EXPECT_EQ(counts[c].misses, tlbs[c].misses());
        EXPECT_EQ(counts[c].hits, tlbs[c].hits());
    }
}

TEST(TlbFanout, RejectsNonLruOrNonBypassingGeometries)
{
    EXPECT_THROW(TlbFanout({cfg(64, 4, Replacement::FIFO)}),
                 std::invalid_argument);
    EXPECT_THROW(TlbFanout({cfg(64, 64, Replacement::LRU, false)}),
                 std::invalid_argument);
    EXPECT_THROW(TlbFanout({cfg(64, 5)}), std::invalid_argument);
}

} // namespace
} // namespace ibs

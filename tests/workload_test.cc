/**
 * @file
 * Unit tests for the workload layer: layouts, walkers and models.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "stats/rng.h"
#include "vm/page.h"
#include "workload/ibs.h"
#include "workload/layout.h"
#include "workload/model.h"
#include "workload/walker.h"

namespace ibs {
namespace {

ComponentParams
smallComponent()
{
    ComponentParams cp;
    cp.base = 0x00400000;
    cp.procCount = 64;
    cp.procMeanBytes = 256;
    cp.zipfS = 1.0;
    cp.hotProcs = 16;
    cp.pCold = 0.01;
    return cp;
}

TEST(CodeLayout, PlacementIsOrderedAndAligned)
{
    Rng rng(1);
    const ComponentParams cp = smallComponent();
    CodeLayout layout(cp, rng);
    ASSERT_EQ(layout.size(), 64u);
    uint64_t prev_end = cp.base;
    for (size_t i = 0; i < layout.size(); ++i) {
        const Procedure &p = layout.byIndex(i);
        EXPECT_GE(p.start, prev_end);
        EXPECT_EQ(p.start % 4, 0u);
        EXPECT_GE(p.size, 32u);
        EXPECT_EQ(p.size % 4, 0u);
        prev_end = p.start + p.size;
    }
    EXPECT_EQ(layout.extent(), prev_end - cp.base);
}

TEST(CodeLayout, RankMappingIsBijective)
{
    Rng rng(2);
    CodeLayout layout(smallComponent(), rng);
    std::set<size_t> indices;
    for (size_t r = 0; r < layout.size(); ++r) {
        const size_t idx = layout.indexOf(r);
        EXPECT_EQ(layout.rankOf(idx), r);
        indices.insert(idx);
    }
    EXPECT_EQ(indices.size(), layout.size());
}

TEST(CodeLayout, FragmentedSpreadsFurther)
{
    Rng rng1(3), rng2(3);
    ComponentParams dense = smallComponent();
    ComponentParams frag = smallComponent();
    frag.fragmented = true;
    CodeLayout a(dense, rng1), b(frag, rng2);
    EXPECT_GT(b.extent(), a.extent());
    EXPECT_EQ(a.codeBytes(), b.codeBytes()); // Same code, more gaps.
}

TEST(CodeLayout, ClusteredKeepsHotRanksNearby)
{
    ComponentParams cp = smallComponent();
    cp.procCount = 256;
    cp.hotProcs = 32;
    cp.clusteredHot = true;
    Rng rng(4);
    CodeLayout layout(cp, rng);
    // With window-8 shuffling, rank r lands within 8 of position r.
    for (size_t r = 0; r < 64; ++r) {
        const size_t idx = layout.indexOf(r);
        EXPECT_LE(idx, r + 8);
        EXPECT_GE(idx + 8, r);
    }
}

TEST(CodeWalker, AddressesStayInImage)
{
    Rng rng(5);
    const ComponentParams cp = smallComponent();
    CodeLayout layout(cp, rng);
    CodeWalker walker(layout, cp, Rng(6));
    const uint64_t lo = cp.base;
    const uint64_t hi = cp.base + layout.extent();
    for (int i = 0; i < 100000; ++i) {
        const uint64_t a = walker.next();
        EXPECT_GE(a, lo);
        EXPECT_LT(a, hi);
        EXPECT_EQ(a % 4, 0u);
    }
    EXPECT_EQ(walker.generated(), 100000u);
}

TEST(CodeWalker, DeterministicForSeed)
{
    Rng rng(7);
    const ComponentParams cp = smallComponent();
    CodeLayout layout(cp, rng);
    CodeWalker a(layout, cp, Rng(8));
    CodeWalker b(layout, cp, Rng(8));
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(CodeWalker, MostlySequential)
{
    Rng rng(9);
    const ComponentParams cp = smallComponent();
    CodeLayout layout(cp, rng);
    CodeWalker walker(layout, cp, Rng(10));
    uint64_t prev = walker.next();
    int sequential = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const uint64_t a = walker.next();
        sequential += a == prev + 4 ? 1 : 0;
        prev = a;
    }
    // Basic-block structure: well over half of fetches fall through.
    EXPECT_GT(sequential, n / 2);
}

TEST(CodeWalker, HotTierDominatesVisits)
{
    Rng rng(11);
    ComponentParams cp = smallComponent();
    cp.hotProcs = 8;
    cp.pCold = 0.01;
    CodeLayout layout(cp, rng);
    CodeWalker walker(layout, cp, Rng(12));
    // Count fetches landing inside hot-tier procedures.
    std::set<std::pair<uint64_t, uint64_t>> hot_ranges;
    for (size_t r = 0; r < 8; ++r) {
        const Procedure &p = layout.byRank(r);
        hot_ranges.insert({p.start, p.start + p.size});
    }
    int hot = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const uint64_t a = walker.next();
        for (const auto &[lo, hi] : hot_ranges)
            if (a >= lo && a < hi) {
                ++hot;
                break;
            }
    }
    EXPECT_GT(hot, n * 3 / 4);
}

TEST(DataWalker, AddressesInStackOrHeap)
{
    DataParams dp;
    dp.enabled = true;
    dp.heapBytes = 64 * 1024;
    DataWalker walker(dp, 0, Rng(13));
    for (int i = 0; i < 10000; ++i) {
        const uint64_t a = walker.next();
        const bool in_heap = a >= dp.dataBase &&
            a < dp.dataBase + dp.heapBytes;
        const bool in_stack = a < dp.dataBase &&
            a >= dp.dataBase - dp.stackBytes - 8;
        EXPECT_TRUE(in_heap || in_stack) << std::hex << a;
        EXPECT_EQ(a % 4, 0u);
    }
}

TEST(WorkloadModel, SharesMatchSpec)
{
    const WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    WorkloadModel model(spec);
    std::map<Asid, uint64_t> counts;
    TraceRecord rec;
    const uint64_t n = 400000;
    for (uint64_t i = 0; i < n; ++i) {
        model.next(rec);
        if (rec.isInstr())
            ++counts[rec.asid];
    }
    // gs under Mach: user 47, kernel 34, bsd 10, x 9 (Table 4).
    const double total = static_cast<double>(model.instructions());
    EXPECT_NEAR(counts[1] / total, 0.47, 0.06);
    EXPECT_NEAR(counts[0] / total, 0.34, 0.06);
    EXPECT_NEAR(counts[2] / total, 0.10, 0.04);
    EXPECT_NEAR(counts[3] / total, 0.09, 0.04);
}

TEST(WorkloadModel, DeterministicForSeed)
{
    const WorkloadSpec spec =
        makeIbs(IbsBenchmark::Verilog, OsType::Mach);
    WorkloadModel a(spec), b(spec);
    TraceRecord ra, rb;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra, rb);
    }
}

TEST(WorkloadModel, SeedOverrideChangesStream)
{
    const WorkloadSpec spec =
        makeIbs(IbsBenchmark::Verilog, OsType::Mach);
    WorkloadModel a(spec, 111), b(spec, 222);
    TraceRecord ra, rb;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a.next(ra);
        b.next(rb);
        same += ra == rb ? 1 : 0;
    }
    EXPECT_LT(same, 900);
}

TEST(WorkloadModel, ResetReplaysIdentically)
{
    const WorkloadSpec spec = makeSpec(SpecBenchmark::Espresso);
    WorkloadModel model(spec);
    std::vector<TraceRecord> first;
    TraceRecord rec;
    for (int i = 0; i < 5000; ++i) {
        model.next(rec);
        first.push_back(rec);
    }
    model.reset();
    for (int i = 0; i < 5000; ++i) {
        model.next(rec);
        ASSERT_EQ(rec, first[i]);
    }
}

TEST(WorkloadModel, DataRecordsWhenEnabled)
{
    WorkloadSpec spec = makeSpec(SpecBenchmark::Eqntott);
    spec.data.enabled = true;
    WorkloadModel model(spec);
    TraceRecord rec;
    uint64_t loads = 0, stores = 0, instrs = 0;
    for (int i = 0; i < 200000; ++i) {
        model.next(rec);
        if (rec.isInstr())
            ++instrs;
        else if (rec.isWrite())
            ++stores;
        else
            ++loads;
    }
    const double li = static_cast<double>(loads) /
        static_cast<double>(instrs);
    const double si = static_cast<double>(stores) /
        static_cast<double>(instrs);
    EXPECT_NEAR(li, spec.data.pLoad, 0.02);
    EXPECT_NEAR(si, spec.data.pStore, 0.02);
}

TEST(WorkloadModel, KernelRefsAreKseg0)
{
    const WorkloadSpec spec = makeIbs(IbsBenchmark::Sdet, OsType::Mach);
    WorkloadModel model(spec);
    TraceRecord rec;
    for (int i = 0; i < 100000; ++i) {
        model.next(rec);
        if (rec.asid == KERNEL_ASID && rec.isInstr()) {
            EXPECT_TRUE(isKseg0(rec.vaddr)) << std::hex << rec.vaddr;
        }
    }
}

TEST(Catalog, AllWorkloadsConstructAndValidate)
{
    for (IbsBenchmark b : allIbsBenchmarks()) {
        for (OsType os : {OsType::Mach, OsType::Ultrix}) {
            const WorkloadSpec spec = makeIbs(b, os);
            EXPECT_FALSE(spec.components.empty());
            EXPECT_GE(spec.findComponent(ComponentKind::User), 0);
            EXPECT_GE(spec.findComponent(ComponentKind::Kernel), 0);
            if (os == OsType::Ultrix) {
                EXPECT_LT(spec.findComponent(ComponentKind::BsdServer),
                          0);
            }
            WorkloadModel model(spec);
            TraceRecord rec;
            EXPECT_TRUE(model.next(rec));
        }
    }
    for (SpecBenchmark b : allSpecBenchmarks()) {
        const WorkloadSpec spec = makeSpec(b);
        EXPECT_EQ(spec.components.size(), 2u);
    }
}

TEST(Catalog, CompositesConstruct)
{
    for (const char *name : {"SPECint89", "SPECfp89", "SPECint92",
                             "SPECfp92"}) {
        const WorkloadSpec spec = specComposite(name);
        EXPECT_EQ(spec.name, name);
        EXPECT_TRUE(spec.data.enabled);
    }
    EXPECT_THROW(specComposite("SPECint2017"), std::invalid_argument);
}

TEST(Catalog, MachAddsEmulationOverheadToUserTask)
{
    const WorkloadSpec mach = makeIbs(IbsBenchmark::Gcc, OsType::Mach);
    const WorkloadSpec ultrix =
        makeIbs(IbsBenchmark::Gcc, OsType::Ultrix);
    const auto &mu =
        mach.components[mach.findComponent(ComponentKind::User)];
    const auto &uu =
        ultrix.components[ultrix.findComponent(ComponentKind::User)];
    EXPECT_GT(mu.procCount, uu.procCount);
    EXPECT_GT(mu.hotProcs, uu.hotProcs);
}

} // namespace
} // namespace ibs

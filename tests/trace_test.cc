/**
 * @file
 * Unit tests for trace records, streams and the Monster capture
 * model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "trace/monster.h"
#include "trace/record.h"
#include "trace/stream.h"

namespace ibs {
namespace {

std::vector<TraceRecord>
sampleRecords()
{
    return {
        {0x00400000, 1, RefKind::InstrFetch},
        {0x00400004, 1, RefKind::InstrFetch},
        {0x30001000, 1, RefKind::DataRead},
        {0x80031000, 0, RefKind::InstrFetch},
        {0x30001004, 1, RefKind::DataWrite},
        {0x00400008, 1, RefKind::InstrFetch},
    };
}

TEST(TraceRecord, Predicates)
{
    TraceRecord instr{0x1000, 1, RefKind::InstrFetch};
    TraceRecord load{0x1000, 1, RefKind::DataRead};
    TraceRecord store{0x1000, 1, RefKind::DataWrite};
    EXPECT_TRUE(instr.isInstr());
    EXPECT_FALSE(instr.isData());
    EXPECT_FALSE(instr.isWrite());
    EXPECT_TRUE(load.isData());
    EXPECT_FALSE(load.isWrite());
    EXPECT_TRUE(store.isData());
    EXPECT_TRUE(store.isWrite());
}

TEST(TraceRecord, ToString)
{
    TraceRecord rec{0x1000, 3, RefKind::InstrFetch};
    EXPECT_EQ(toString(rec), "I 3:0x00001000");
    rec.kind = RefKind::DataWrite;
    EXPECT_EQ(toString(rec), "W 3:0x00001000");
}

TEST(VectorTraceStream, ProducesAllThenEnds)
{
    VectorTraceStream s(sampleRecords());
    TraceRecord rec;
    size_t n = 0;
    while (s.next(rec))
        ++n;
    EXPECT_EQ(n, 6u);
    EXPECT_FALSE(s.next(rec));
}

TEST(VectorTraceStream, ResetReplays)
{
    VectorTraceStream s(sampleRecords());
    TraceRecord a, b;
    ASSERT_TRUE(s.next(a));
    s.reset();
    ASSERT_TRUE(s.next(b));
    EXPECT_EQ(a, b);
}

TEST(TakeStream, LimitsCount)
{
    VectorTraceStream inner(sampleRecords());
    TakeStream take(inner, 3);
    EXPECT_EQ(drain(take).size(), 3u);
}

TEST(TakeStream, ResetRestoresBudget)
{
    VectorTraceStream inner(sampleRecords());
    TakeStream take(inner, 2);
    drain(take);
    take.reset();
    EXPECT_EQ(drain(take).size(), 2u);
}

TEST(FilterKindStream, SelectsKind)
{
    VectorTraceStream inner(sampleRecords());
    FilterKindStream instr(inner, RefKind::InstrFetch);
    const auto out = drain(instr);
    EXPECT_EQ(out.size(), 4u);
    for (const auto &rec : out)
        EXPECT_TRUE(rec.isInstr());
}

TEST(MonsterCapture, NonInvasivePassThrough)
{
    VectorTraceStream inner(sampleRecords());
    MonsterConfig config;
    config.bufferRecords = 2;
    config.unloadHandlerInstrs = 0;
    MonsterCapture capture(inner, config);
    EXPECT_EQ(drain(capture).size(), 6u);
    EXPECT_EQ(capture.stalls(), 3u);
    EXPECT_EQ(capture.injectedRecords(), 0u);
}

TEST(MonsterCapture, InvasiveInjectsHandlerRefs)
{
    VectorTraceStream inner(sampleRecords());
    MonsterConfig config;
    config.bufferRecords = 3;
    config.unloadHandlerInstrs = 2;
    MonsterCapture capture(inner, config);
    const auto out = drain(capture);
    // 6 payload records + 2 injections per stall.
    EXPECT_EQ(capture.stalls(), 2u);
    EXPECT_EQ(out.size(), 6u + capture.injectedRecords());
    EXPECT_EQ(capture.injectedRecords(), 4u);
    // Injected records are kernel instruction fetches at handlerBase.
    EXPECT_EQ(out[3].asid, KERNEL_ASID);
    EXPECT_EQ(out[3].vaddr, config.handlerBase);
    EXPECT_TRUE(out[3].isInstr());
}

TEST(MonsterCapture, ResetClearsState)
{
    VectorTraceStream inner(sampleRecords());
    MonsterConfig config;
    config.bufferRecords = 2;
    MonsterCapture capture(inner, config);
    drain(capture);
    capture.reset();
    EXPECT_EQ(capture.stalls(), 0u);
    EXPECT_EQ(drain(capture).size(), 6u);
}

} // namespace
} // namespace ibs

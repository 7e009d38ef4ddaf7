/**
 * @file
 * Run-length encoded instruction traces.
 *
 * The workload model emits geometric *sequential runs* of 4-byte
 * instructions (DESIGN §2), so with 16-64B cache lines most
 * consecutive fetches land in the line the previous fetch just
 * touched. A RunTrace stores the instruction stream as FetchRun
 * records — one record per maximal stretch of consecutive +4 fetches
 * that stays inside a single cache line and one address space — so
 * replay loops can retire a whole line-resident run with one tag
 * probe (FetchEngine::fetchRun) instead of one probe per
 * instruction, and physically-indexed replay (sim/tapeworm.h) can
 * translate a run with one page lookup.
 *
 * RunStream (workload/run_stream.h) is the one encoder: it cuts the
 * model's stream as it is generated. The encoding depends only on the
 * line size, not on any other cache parameter, which is what lets
 * SuiteTraces share one RunTrace per (workload, lineBytes) across
 * every cell of a sweep grid.
 */

#ifndef IBS_TRACE_RUN_TRACE_H
#define IBS_TRACE_RUN_TRACE_H

#include <cstdint>
#include <vector>

#include "trace/record.h"

namespace ibs {

/** Instruction width of the modelled ISA (MIPS, DESIGN §2). */
inline constexpr uint32_t kInstrBytes = 4;

/**
 * One maximal sequential fetch run: `count` instructions at
 * startVaddr, startVaddr+4, ..., startVaddr+4*(count-1), all inside
 * one cache line of the RunTrace's lineBytes and all fetched by
 * address space `asid`.
 */
struct FetchRun
{
    uint64_t startVaddr = 0;
    uint32_t count = 0;
    Asid asid = KERNEL_ASID;
};

// The ASID sits in what would otherwise be padding: replay loops and
// memo budgets price a run at 16 bytes.
static_assert(sizeof(FetchRun) == 16);

/** A whole instruction trace as line-bounded sequential runs. */
struct RunTrace
{
    uint32_t lineBytes = 0;    ///< Line size the runs were cut for.
    uint64_t instructions = 0; ///< Sum of all run counts.
    std::vector<FetchRun> runs;

    /** Mean instructions per run (compression ratio; 0 if empty). */
    double
    instructionsPerRun() const
    {
        return runs.empty()
            ? 0.0
            : static_cast<double>(instructions) /
              static_cast<double>(runs.size());
    }

    /** Retained bytes of the run records (what a memo holding this
     *  trace charges against a byte budget; the flat equivalent is
     *  instructions * sizeof(uint64_t)). */
    uint64_t
    bytes() const
    {
        return static_cast<uint64_t>(runs.size()) * sizeof(FetchRun);
    }
};

} // namespace ibs

#endif // IBS_TRACE_RUN_TRACE_H

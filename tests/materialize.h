/**
 * @file
 * Test oracles: the flat instruction-address stream of a workload,
 * and the run encoding computed from it.
 *
 * SuiteTraces holds run traces only, and RunStream cuts them while
 * the model generates. The scalar reference loops of the
 * differential tests (FetchEngine::fetch per instruction) need every
 * address, so they rebuild the flat stream here, straight from the
 * workload model's record loop; compressRuns cuts that flat stream
 * into runs the slow, obvious way, as the reference RunStream's
 * fused cuts are checked against.
 */

#ifndef IBS_TESTS_MATERIALIZE_H
#define IBS_TESTS_MATERIALIZE_H

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "trace/run_trace.h"
#include "workload/model.h"

namespace ibs {

/** The first `n` instruction addresses of `spec` (fewer if the
 *  workload drains); data records are skipped. */
inline std::vector<uint64_t>
materialize(const WorkloadSpec &spec, uint64_t n)
{
    WorkloadModel model(spec);
    std::vector<uint64_t> addrs;
    addrs.reserve(n);
    TraceRecord rec;
    while (addrs.size() < n && model.next(rec)) {
        if (rec.isInstr())
            addrs.push_back(rec.vaddr);
    }
    return addrs;
}

/**
 * Cut a flat instruction-address vector into line-bounded sequential
 * runs: a run is extended while the next address is exactly the
 * previous plus kInstrBytes *and* still in the same `line_bytes`
 * line as the run's start. Runs carry KERNEL_ASID: the flat stream
 * has no address spaces.
 *
 * @throws std::invalid_argument unless line_bytes is a power of two
 *         >= 4
 */
inline RunTrace
compressRuns(const std::vector<uint64_t> &addrs, uint32_t line_bytes)
{
    if (line_bytes < kInstrBytes || !std::has_single_bit(line_bytes)) {
        throw std::invalid_argument(
            "compressRuns: line_bytes must be a power of two >= 4");
    }
    RunTrace trace;
    trace.lineBytes = line_bytes;
    trace.instructions = addrs.size();
    const uint64_t line_mask = ~uint64_t{line_bytes - 1};
    for (size_t i = 0; i < addrs.size(); ++i) {
        const uint64_t addr = addrs[i];
        if (i > 0 && addr == addrs[i - 1] + kInstrBytes &&
            (addr & line_mask) ==
                (trace.runs.back().startVaddr & line_mask)) {
            ++trace.runs.back().count;
        } else {
            trace.runs.push_back(FetchRun{addr, 1});
        }
    }
    return trace;
}

} // namespace ibs

#endif // IBS_TESTS_MATERIALIZE_H

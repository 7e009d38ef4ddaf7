/**
 * @file
 * Run-length trace compression.
 */

#include "trace/run_trace.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace ibs {

RunTrace
compressRuns(const std::vector<uint64_t> &addrs, uint32_t line_bytes)
{
    if (line_bytes < kInstrBytes ||
        !std::has_single_bit(line_bytes)) {
        throw std::invalid_argument(
            "compressRuns: line_bytes must be a power of two >= 4");
    }

    RunTrace trace;
    trace.lineBytes = line_bytes;
    trace.instructions = addrs.size();
    if (addrs.empty())
        return trace;

    const uint64_t line_mask = ~uint64_t{line_bytes - 1};
    // Worst case (no compression) is one run per address; typical
    // traces compress ~8-16x, so reserve conservatively small.
    trace.runs.reserve(addrs.size() / 4 + 1);

    FetchRun run{addrs[0], 1};
    uint64_t run_line = addrs[0] & line_mask;
    uint64_t prev = addrs[0];
    for (size_t i = 1; i < addrs.size(); ++i) {
        const uint64_t addr = addrs[i];
        if (addr == prev + kInstrBytes &&
            (addr & line_mask) == run_line) {
            ++run.count;
        } else {
            trace.runs.push_back(run);
            run = FetchRun{addr, 1};
            run_line = addr & line_mask;
        }
        prev = addr;
    }
    trace.runs.push_back(run);
    return trace;
}

AsidRunEncoder::AsidRunEncoder(uint32_t line_bytes)
    : lineMask_(~uint64_t{line_bytes - 1})
{
    if (line_bytes < kInstrBytes ||
        !std::has_single_bit(line_bytes)) {
        throw std::invalid_argument(
            "AsidRunEncoder: line_bytes must be a power of two >= 4");
    }
    trace_.lineBytes = line_bytes;
}

void
AsidRunEncoder::append(Asid asid, uint64_t start, uint64_t count)
{
    while (count > 0) {
        const uint64_t pending_end = pending_.startVaddr +
            uint64_t{pending_.count} * kInstrBytes;
        const bool extends = pending_.count != 0 &&
            asid == pending_.asid && start == pending_end &&
            (start & lineMask_) == (pending_.startVaddr & lineMask_);
        if (!extends) {
            if (pending_.count != 0)
                trace_.runs.push_back(pending_);
            pending_ = AsidRun{start, 0, asid};
        }
        // Instructions left before `start`'s line ends.
        const uint64_t room =
            ((start & lineMask_) + trace_.lineBytes - start +
             kInstrBytes - 1) / kInstrBytes;
        const uint64_t m = std::min(count, room);
        pending_.count += static_cast<uint32_t>(m);
        trace_.instructions += m;
        start += m * kInstrBytes;
        count -= m;
    }
}

AsidRunTrace
AsidRunEncoder::finish()
{
    if (pending_.count != 0)
        trace_.runs.push_back(pending_);
    pending_ = AsidRun{};
    AsidRunTrace out = std::move(trace_);
    trace_ = AsidRunTrace{};
    trace_.lineBytes = out.lineBytes;
    return out;
}

} // namespace ibs

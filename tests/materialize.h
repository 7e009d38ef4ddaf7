/**
 * @file
 * Test oracle: the flat instruction-address stream of a workload.
 *
 * SuiteTraces holds run traces only. The scalar reference loops of
 * the differential tests (FetchEngine::fetch per instruction,
 * compressRuns) need every address, so they rebuild the flat stream
 * here, straight from the workload model's record loop.
 */

#ifndef IBS_TESTS_MATERIALIZE_H
#define IBS_TESTS_MATERIALIZE_H

#include <cstdint>
#include <vector>

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

} // namespace ibs

#endif // IBS_TESTS_MATERIALIZE_H

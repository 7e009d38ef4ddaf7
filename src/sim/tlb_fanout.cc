/**
 * @file
 * TlbFanout implementation.
 */

#include "sim/tlb_fanout.h"

#include <cassert>
#include <stdexcept>

namespace ibs {

namespace {

std::vector<StackGeometry>
stackGeometries(const std::vector<TlbConfig> &configs)
{
    std::vector<StackGeometry> geometries;
    for (const TlbConfig &config : configs) {
        config.validate();
        if (config.replacement != Replacement::LRU ||
            !config.kseg0Bypasses) {
            throw std::invalid_argument(
                "TlbFanout: geometries must be LRU and bypass kseg0");
        }
        geometries.push_back(
            StackGeometry{config.numSets(), config.assoc});
    }
    return geometries;
}

} // namespace

TlbFanout::TlbFanout(const std::vector<TlbConfig> &configs)
    : sim_(0, stackGeometries(configs))
{
}

void
TlbFanout::access(Asid asid, uint64_t vaddr)
{
    if (isKseg0(vaddr))
        return;
    const uint64_t vpn = pageNumber(vaddr);
    assert(vpn >> 48 == 0);
    sim_.reference((uint64_t{asid} << 48) | vpn);
}

void
TlbFanout::publishCounters(obs::Registry &registry,
                           const std::string &instance,
                           const StackCounts &counts)
{
    const std::string prefix = "tlb." + instance + ".";
    registry.add(prefix + "accesses", counts.hits + counts.misses);
    registry.add(prefix + "hits", counts.hits);
    registry.add(prefix + "misses", counts.misses);
}

} // namespace ibs

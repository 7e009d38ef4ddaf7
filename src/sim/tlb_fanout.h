/**
 * @file
 * One reference stream, many LRU TLB geometries.
 *
 * A TLB sweep (bench/ablation_tlb) asks the same question of every
 * geometry: how often does this (asid, vpn) stream miss? Under LRU a
 * TLB is a set-associative cache of (asid, vpn) keys, so Mattson's
 * stack property (sim/stack_sim.h) answers it for every (sets, ways)
 * point in one pass: the key (asid << 48) | vpn puts the vpn in the
 * low bits the set index is taken from and keeps address spaces
 * apart. Counts are exact with respect to tlb/tlb.h for LRU TLBs
 * that are never flushed: Tlb::access touches recency on every hit
 * and fills an invalid way before evicting the least recent one.
 * kseg0 references bypass every geometry, as they bypass Tlb.
 *
 * On the ablation_tlb grid (5 fully-associative and 5 4-way
 * geometries, 16-256 entries, 18 workloads at 500k instructions) one
 * stack pass took 0.32 s against 1.35 s for ten Tlb instances
 * (4-vCPU Xeon, GCC 12.2, Release).
 */

#ifndef IBS_SIM_TLB_FANOUT_H
#define IBS_SIM_TLB_FANOUT_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/stack_sim.h"
#include "tlb/tlb.h"

namespace ibs {

/** Per-geometry TLB counts from one stack pass. */
class TlbFanout
{
  public:
    /**
     * @param configs geometries to count; each must be valid, LRU,
     *        and bypass kseg0
     * @throws std::invalid_argument otherwise
     */
    explicit TlbFanout(const std::vector<TlbConfig> &configs);

    /** Translate one reference in every geometry. */
    void access(Asid asid, uint64_t vaddr);

    /** Counts per geometry, in construction order; accesses exclude
     *  kseg0 references, as Tlb::accesses() does. */
    std::vector<StackCounts> counts() const { return sim_.counts(); }

    /**
     * Publish one geometry's counts to the observability registry
     * as "tlb.<instance>.accesses", ".hits" and ".misses". Caller
     * gates on Registry::enabled().
     */
    static void publishCounters(obs::Registry &registry,
                                const std::string &instance,
                                const StackCounts &counts);

  private:
    StackSimulator sim_;
};

} // namespace ibs

#endif // IBS_SIM_TLB_FANOUT_H

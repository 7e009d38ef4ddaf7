/**
 * @file
 * TLB model.
 *
 * Tables 1 and 3 of the paper decompose DECstation CPI into I-cache,
 * D-cache, TLB and write-stall components. The R2000 TLB is a
 * 64-entry, fully-associative, software-managed buffer of 4-KB page
 * mappings tagged by ASID; kseg0 (kernel direct-mapped) references do
 * not consult it. This model supports fully- and set-associative
 * geometries with LRU/FIFO/random replacement so TLB reach can be
 * studied alongside the caches.
 */

#ifndef IBS_TLB_TLB_H
#define IBS_TLB_TLB_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.h"
#include "trace/record.h"
#include "vm/page.h"

namespace ibs {

/** TLB geometry and policy. */
struct TlbConfig
{
    uint32_t entries = 64;     ///< Total entries (R2000: 64).
    uint32_t assoc = 64;       ///< Ways; == entries for fully-assoc.
    Replacement replacement = Replacement::LRU;
    bool kseg0Bypasses = true; ///< Kernel direct-mapped refs skip TLB.

    uint32_t numSets() const { return entries / assoc; }
    void validate() const;
    std::string toString() const;
};

/** Software-managed TLB. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Translate a reference; refills the entry on a miss.
     *
     * @retval true TLB hit (or kseg0 bypass)
     */
    bool access(Asid asid, uint64_t vaddr);

    /** Hit/miss probe with no state change (kseg0 counts as present). */
    bool contains(Asid asid, uint64_t vaddr) const;

    /** Drop all entries for one address space (context teardown). */
    void flushAsid(Asid asid);

    /** Drop everything. */
    void flushAll();

    const TlbConfig &config() const { return config_; }
    uint64_t accesses() const { return accesses_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return accesses_ - hits_; }

    /** Misses per access. */
    double
    missRatio() const
    {
        return accesses_ ? static_cast<double>(misses()) /
                           static_cast<double>(accesses_)
                         : 0.0;
    }

    void resetStats();

  private:
    struct Entry
    {
        uint64_t vpn = 0;
        Asid asid = 0;
        uint64_t stamp = 0;
        bool valid = false;
    };

    int findWay(uint64_t set, Asid asid, uint64_t vpn) const;
    uint32_t victimWay(uint64_t set);

    TlbConfig config_;
    std::vector<Entry> entries_;
    uint64_t clock_ = 0;
    uint64_t lfsr_ = 0xbeefu;
    uint64_t accesses_ = 0;
    uint64_t hits_ = 0;
};

} // namespace ibs

#endif // IBS_TLB_TLB_H

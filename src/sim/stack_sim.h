/**
 * @file
 * Mattson-style all-associativity LRU stack simulation.
 *
 * One pass over a reference stream computes exact hit/miss/eviction
 * counts for *every* (sets, associativity) geometry sharing a line
 * size and LRU replacement — the classic stack-algorithm result
 * (Mattson et al. 1970; Hill & Smith 1989 for the set-associative
 * "all-associativity" extension): under LRU, a reference hits a
 * geometry with S sets and A ways iff fewer than A *distinct* lines
 * mapping to the same set have been referenced since the last
 * reference to this line. A single global LRU stack yields that
 * count for all geometries at once: walk from the most recent entry
 * down to the referenced line, counting, per set mask, the entries
 * that share the reference's set.
 *
 * sim/tlb_fanout.h uses this to resolve every TLB geometry of the
 * TLB ablation in one walk of the page-reference stream. Sweep
 * collapsing (sim/collapse.h) does not: the walk only beats one
 * Cache replay per geometry past ~48 distinct geometries per line
 * size, and no sweep grid has more than 5. The counts are exact
 * with respect to cache/cache.h for demand-only LRU streams:
 *
 *  - hits: the stack-distance property above (Cache::access touches
 *    recency on every hit and allocates on every miss, i.e. pure
 *    LRU);
 *  - evictions: Cache::victimWay prefers an invalid way, lines are
 *    never invalidated mid-run, so a set with M misses evicts
 *    max(0, M - A) lines; per-set miss counts are tracked per
 *    variant.
 *
 * The walk early-terminates once every set mask has seen its maximum
 * associativity of conflicting entries — all remaining variants have
 * already been decided as misses — bounding the per-reference cost
 * by the largest simulated cache's line count rather than the stack
 * depth.
 */

#ifndef IBS_SIM_STACK_SIM_H
#define IBS_SIM_STACK_SIM_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ibs {

/** One simulated geometry: numSets must be a power of two. */
struct StackGeometry
{
    uint64_t numSets = 1;
    uint32_t assoc = 1;
};

/** Exact per-geometry counts after a reference stream. */
struct StackCounts
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
};

/** Single-pass simulator for all geometries at one line size. */
class StackSimulator
{
  public:
    /**
     * @param line_shift log2(lineBytes) shared by every geometry
     * @param geometries simulated (sets, ways) points; duplicates
     *        are fine (independent counters)
     */
    StackSimulator(unsigned line_shift,
                   const std::vector<StackGeometry> &geometries);

    /** Reference the line containing `addr`, in stream order. */
    void reference(uint64_t addr);

    /** Counts per geometry, in construction order. */
    std::vector<StackCounts> counts() const;

  private:
    static constexpr uint32_t kNil = ~uint32_t{0};

    /** Intrusive doubly-linked LRU stack node (never removed). */
    struct Node
    {
        uint64_t tag;
        uint32_t prev;
        uint32_t next;
    };

    void moveToFront(uint32_t idx);
    bool saturatedNow() const;

    unsigned lineShift_;
    std::vector<StackGeometry> geometries_;

    // Distinct set masks (numSets - 1), ascending; per-mask maximum
    // associativity for the early-termination bound; per-geometry
    // index into masks_. The masks are nested (all 2^k - 1), so the
    // walk tallies nodes by countr_zero(tag ^ target) — zeroCnt_,
    // clamped to the widest mask (maxBits_) — and per-mask conflict
    // counts are suffix sums over those tallies.
    std::vector<uint64_t> masks_;
    std::vector<uint32_t> maskBits_;
    std::vector<uint32_t> maxAssoc_;
    std::vector<uint32_t> maskOf_;
    uint32_t maxBits_ = 0;
    std::vector<uint32_t> zeroCnt_; ///< Per-reference walk scratch.

    std::vector<Node> nodes_;
    uint32_t head_ = kNil;
    std::unordered_map<uint64_t, uint32_t> index_; ///< tag -> node.

    std::vector<uint64_t> hits_;   ///< Per geometry.
    std::vector<uint64_t> misses_; ///< Per geometry.
    /** Per-geometry per-set miss counts (evictions formula). */
    std::vector<std::vector<uint64_t>> setMisses_;
    std::vector<uint32_t> conflicts_; ///< Per-mask walk scratch.
};

} // namespace ibs

#endif // IBS_SIM_STACK_SIM_H

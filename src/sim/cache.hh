/**
 * @file
 * Set-associative cache timing model with LRU replacement.
 *
 * Tag-array-only (no data contents): the simulator needs hit/miss
 * decisions and latencies, not values. Geometry defaults follow
 * Table 1 of the paper.
 */

#ifndef BPSIM_SIM_CACHE_HH
#define BPSIM_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace bpsim {

/** LRU set-associative tag array. */
class Cache
{
  public:
    /**
     * @param size_bytes Total capacity (power of two).
     * @param line_bytes Line size (power of two).
     * @param assoc Associativity (1 = direct mapped).
     * @param name Label for stats output.
     */
    Cache(std::size_t size_bytes, std::size_t line_bytes,
          unsigned assoc, std::string name);

    /**
     * Access @p addr; allocate on miss. @return true on hit.
     */
    bool
    access(Addr addr)
    {
        ++accesses_;
        ++useClock_;
        Way *set = &ways_[setIndex(addr) * assoc_];
        const Addr tag = tagOf(addr);

        Way *victim = &set[0];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tag) {
                set[w].lastUse = useClock_;
                return true;
            }
            if (!set[w].valid ||
                (victim->valid && set[w].lastUse < victim->lastUse)) {
                victim = &set[w];
            }
        }
        ++misses_;
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = useClock_;
        return false;
    }

    /** Probe without updating LRU or allocating (tests). */
    bool contains(Addr addr) const;

    const std::string &name() const { return name_; }
    std::size_t sizeBytes() const { return sizeBytes_; }
    std::size_t lineBytes() const { return lineBytes_; }
    unsigned associativity() const { return assoc_; }

    Counter accesses() const { return accesses_; }
    Counter misses() const { return misses_; }
    double missRate() const
    {
        return accesses_ ? static_cast<double>(misses_) /
                               static_cast<double>(accesses_)
                         : 0.0;
    }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(addr >> lineShift_) &
               (numSets_ - 1);
    }
    Addr tagOf(Addr addr) const { return addr >> tagShift_; }

    std::size_t sizeBytes_;
    std::size_t lineBytes_;
    unsigned assoc_;
    std::size_t numSets_;
    unsigned lineShift_; ///< log2(lineBytes_)
    unsigned tagShift_;  ///< log2(lineBytes_ * numSets_)
    std::string name_;
    std::vector<Way> ways_; // numSets_ * assoc_
    std::uint64_t useClock_ = 0;
    Counter accesses_ = 0;
    Counter misses_ = 0;
};

} // namespace bpsim

#endif // BPSIM_SIM_CACHE_HH

/**
 * @file
 * Branch target buffer: a set-associative cache of branch targets.
 *
 * The direction predictor only says taken/not-taken; the BTB
 * supplies *where* (Section 3.3.3). Table 1 configures it as
 * 512-entry, 2-way.
 */

#ifndef BPSIM_SIM_BTB_HH
#define BPSIM_SIM_BTB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace bpsim {

/** Set-associative branch target buffer. */
class Btb
{
  public:
    /**
     * @param entries Total entries (power of two).
     * @param assoc Associativity.
     */
    Btb(std::size_t entries, unsigned assoc);

    /** Look up @p pc; returns the stored target on hit. */
    std::optional<Addr> lookup(Addr pc);

    /** Install or refresh the mapping pc -> target. */
    void update(Addr pc, Addr target);

    Counter lookups() const { return lookups_; }
    Counter hits() const { return hits_; }
    double
    hitRate() const
    {
        return lookups_ ? static_cast<double>(hits_) /
                              static_cast<double>(lookups_)
                        : 0.0;
    }

  private:
    struct Entry
    {
        Addr tag = 0;
        Addr target = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t setIndex(Addr pc) const;
    Addr tagOf(Addr pc) const;

    std::size_t numSets_;
    unsigned assoc_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    Counter lookups_ = 0;
    Counter hits_ = 0;
};

} // namespace bpsim

#endif // BPSIM_SIM_BTB_HH

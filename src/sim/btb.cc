#include "sim/btb.hh"

#include <cassert>

#include "common/bitutil.hh"

namespace bpsim {

Btb::Btb(std::size_t entries, unsigned assoc)
    : numSets_(entries / assoc), assoc_(assoc), entries_(entries)
{
    assert(assoc >= 1);
    assert(numSets_ >= 1 && isPowerOfTwo(numSets_));
}

std::size_t
Btb::setIndex(Addr pc) const
{
    return static_cast<std::size_t>(pc >> 4) & (numSets_ - 1);
}

Addr
Btb::tagOf(Addr pc) const
{
    return pc >> 4 >> floorLog2(numSets_);
}

std::optional<Addr>
Btb::lookup(Addr pc)
{
    ++lookups_;
    ++useClock_;
    Entry *set = &entries_[setIndex(pc) * assoc_];
    const Addr tag = tagOf(pc);
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].lastUse = useClock_;
            ++hits_;
            return set[w].target;
        }
    }
    return std::nullopt;
}

void
Btb::update(Addr pc, Addr target)
{
    ++useClock_;
    Entry *set = &entries_[setIndex(pc) * assoc_];
    const Addr tag = tagOf(pc);
    Entry *victim = &set[0];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].target = target;
            set[w].lastUse = useClock_;
            return;
        }
        if (!set[w].valid ||
            (victim->valid && set[w].lastUse < victim->lastUse)) {
            victim = &set[w];
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lastUse = useClock_;
}

} // namespace bpsim

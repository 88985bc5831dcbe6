#include "predictors/yags.hh"

#include <cassert>

#include "common/bitutil.hh"
#include "robust/state_visitor.hh"

namespace bpsim {

YagsPredictor::YagsPredictor(std::size_t choice_entries,
                             std::size_t cache_entries,
                             unsigned tag_bits)
    : choice_(choice_entries),
      takenCache_(cache_entries),
      notTakenCache_(cache_entries),
      choiceMask_(choice_entries - 1),
      cacheMask_(cache_entries - 1),
      cacheIndexBits_(floorLog2(cache_entries)),
      tagBits_(tag_bits),
      history_(floorLog2(cache_entries))
{
    assert(isPowerOfTwo(choice_entries));
    assert(isPowerOfTwo(cache_entries));
    assert(tag_bits >= 1 && tag_bits <= 16);
    // The taken cache starts weakly not-taken and vice versa: an
    // exception cache entry's job is to contradict the bias.
    for (auto &e : takenCache_)
        e.counter.set(1);
    for (auto &e : notTakenCache_)
        e.counter.set(2);
}

std::size_t
YagsPredictor::storageBits() const
{
    return choice_.size() * 2 +
           (takenCache_.size() + notTakenCache_.size()) *
               (2 + tagBits_ + 1) +
           history_.length();
}

void
YagsPredictor::visitState(robust::StateVisitor &v)
{
    v.visit(robust::packedCounterField("pred.yags.choice", choice_));
    // Each exception cache is three SRAM arrays: partial tags,
    // two-bit counters (reset to the cache's initial state) and
    // valid bits.
    const auto visitCache = [this, &v](const std::string &name,
                                       std::vector<CacheEntry> &cache,
                                       std::uint64_t counter_reset) {
        v.visit(robust::memberField(name + ".tag", cache,
                                    &CacheEntry::tag, tagBits_));
        v.visit(robust::memberField(name + ".counter", cache,
                                    &CacheEntry::counter, 2,
                                    counter_reset));
        v.visit(robust::memberField(name + ".valid", cache,
                                    &CacheEntry::valid, 1));
    };
    visitCache("pred.yags.taken_cache", takenCache_, 1);
    visitCache("pred.yags.not_taken_cache", notTakenCache_, 2);
    v.visit(robust::historyField("pred.yags.history", history_));
}

} // namespace bpsim

#include "sim/cache.hh"

#include <bit>
#include <cassert>

#include "common/bitutil.hh"

namespace bpsim {

Cache::Cache(std::size_t size_bytes, std::size_t line_bytes,
             unsigned assoc, std::string name)
    : sizeBytes_(size_bytes),
      lineBytes_(line_bytes),
      assoc_(assoc),
      numSets_(size_bytes / (line_bytes * assoc)),
      lineShift_(static_cast<unsigned>(std::countr_zero(line_bytes))),
      tagShift_(static_cast<unsigned>(
          std::countr_zero(line_bytes * numSets_))),
      name_(std::move(name)),
      ways_(numSets_ * assoc)
{
    assert(isPowerOfTwo(size_bytes));
    assert(isPowerOfTwo(line_bytes));
    assert(assoc >= 1);
    assert(numSets_ >= 1 && isPowerOfTwo(numSets_));
}

bool
Cache::contains(Addr addr) const
{
    const Way *set = &ways_[setIndex(addr) * assoc_];
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assoc_; ++w)
        if (set[w].valid && set[w].tag == tag)
            return true;
    return false;
}

} // namespace bpsim

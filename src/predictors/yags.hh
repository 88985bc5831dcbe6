/**
 * @file
 * YAGS — "Yet Another Global Scheme" (Eden and Mudge, MICRO-31).
 *
 * A refinement of the Bi-Mode idea: a PC-indexed choice PHT supplies
 * the bias, and two small *tagged* direction caches (taken-cache and
 * not-taken-cache) store only the exceptions — instances where the
 * outcome disagrees with the bias. Tags eliminate most destructive
 * aliasing at a fraction of Bi-Mode's direction-bank storage. It
 * belongs to the same "cleverer indexing, more logic levels" family
 * the paper weighs against pipelinable simplicity.
 */

#ifndef BPSIM_PREDICTORS_YAGS_HH
#define BPSIM_PREDICTORS_YAGS_HH

#include <vector>

#include "common/bitutil.hh"

#include "common/history.hh"
#include "common/packed_pht.hh"
#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace bpsim {

/** YAGS: choice PHT + tagged exception caches. */
class YagsPredictor final : public DirectionPredictor
{
  public:
    /**
     * @param choice_entries Choice PHT entries (power of two).
     * @param cache_entries Entries in *each* exception cache
     *        (power of two).
     * @param tag_bits Partial tag width (6-8 in the paper).
     */
    YagsPredictor(std::size_t choice_entries,
                  std::size_t cache_entries, unsigned tag_bits = 8);

    std::string name() const override { return "yags"; }
    std::size_t storageBits() const override;
    void visitState(robust::StateVisitor &v) override;
    // Inline bodies: see the note in gshare.hh.
    bool
    predict(Addr pc) override
    {
        lastBiasTaken_ = choice_.taken(choiceIndex(pc));
        const auto &cache =
            lastBiasTaken_ ? takenCache_ : notTakenCache_;
        const CacheEntry &e = cache[cacheIndex(pc)];
        lastFromCache_ = e.valid && e.tag == tagOf(pc);
        lastPrediction_ =
            lastFromCache_ ? e.counter.taken() : lastBiasTaken_;
        return lastPrediction_;
    }

    void
    update(Addr pc, bool taken) override
    {
        auto &cache = lastBiasTaken_ ? takenCache_ : notTakenCache_;
        CacheEntry &e = cache[cacheIndex(pc)];

        if (lastFromCache_) {
            // Train the exception entry that made the prediction.
            e.counter.update(taken);
        } else if (taken != lastBiasTaken_) {
            // The bias failed and no exception was recorded: allocate.
            e.valid = true;
            e.tag = tagOf(pc);
            e.counter.set(taken ? 2 : 1);
        }

        // The choice PHT trains toward the outcome except when it was
        // successfully overridden by the exception cache (the Bi-Mode
        // partial-update rule).
        const bool cache_correct =
            lastFromCache_ && lastPrediction_ == taken;
        if (!(lastBiasTaken_ != taken && cache_correct))
            choice_.update(choiceIndex(pc), taken);

        history_.shiftIn(taken);
    }

  private:
    struct CacheEntry
    {
        std::uint16_t tag = 0;
        TwoBitCounter counter;
        bool valid = false;
    };

    std::size_t
    choiceIndex(Addr pc) const
    {
        return static_cast<std::size_t>(indexPc(pc)) & choiceMask_;
    }

    std::size_t
    cacheIndex(Addr pc) const
    {
        const std::uint64_t h = history_.low(cacheIndexBits_);
        return static_cast<std::size_t>((indexPc(pc) ^ h) &
                                        cacheMask_);
    }

    std::uint16_t
    tagOf(Addr pc) const
    {
        return static_cast<std::uint16_t>(indexPc(pc) &
                                          loMask(tagBits_));
    }

    PackedPhtStorage choice_;
    std::vector<CacheEntry> takenCache_;    ///< exceptions when bias=T
    std::vector<CacheEntry> notTakenCache_; ///< exceptions when bias=NT
    std::size_t choiceMask_;
    std::size_t cacheMask_;
    unsigned cacheIndexBits_;
    unsigned tagBits_;
    HistoryRegister history_;

    // predict() -> update() carried state
    bool lastBiasTaken_ = false;
    bool lastFromCache_ = false;
    bool lastPrediction_ = false;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_YAGS_HH

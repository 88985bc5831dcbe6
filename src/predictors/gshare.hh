/**
 * @file
 * gshare predictor (McFarling, WRL TN-36): a PHT of two-bit counters
 * indexed by the XOR of the branch PC with the global history.
 *
 * Following the paper, history length equals log2(PHT entries) —
 * "the maximum history length possible" (Section 4.1.4). A 2K-entry
 * gshare is also the quick component of the overriding predictors.
 */

#ifndef BPSIM_PREDICTORS_GSHARE_HH
#define BPSIM_PREDICTORS_GSHARE_HH

#include "common/history.hh"
#include "common/packed_pht.hh"
#include "predictors/predictor.hh"

namespace bpsim {

/** Global-history XOR-indexed two-bit-counter predictor. */
class GsharePredictor final : public DirectionPredictor
{
  public:
    /**
     * @param entries PHT entry count (power of two).
     * @param history_bits History length; 0 means log2(entries).
     */
    explicit GsharePredictor(std::size_t entries,
                             unsigned history_bits = 0);

    std::string name() const override { return "gshare"; }
    std::size_t storageBits() const override
    {
        return pht_.size() * 2 + history_.length();
    }
    // predict/update are defined inline here (not in gshare.cc): the
    // devirtualized replay loop (core/dispatch.hh) instantiates its
    // template at the concrete type, and the whole per-branch step
    // only collapses into straight-line code when the bodies are
    // visible at that call site.
    bool
    predict(Addr pc) override
    {
        lastIndex_ = index(pc);
        return pht_.taken(lastIndex_);
    }

    void
    update(Addr /*pc*/, bool taken) override
    {
        // lastIndex_ carries predict()'s index: update() is always
        // paired with the predict() for the same pc, and the
        // history has not shifted in between, so the index (and its
        // possible history fold) would come out identical anyway.
        pht_.update(lastIndex_, taken);
        history_.shiftIn(taken);
    }

    std::vector<PredictorStat> describeStats() const override;
    void visitState(robust::StateVisitor &v) override;

    /** Current global history (tests and composite predictors). */
    const HistoryRegister &history() const { return history_; }

  private:
    std::size_t
    index(Addr pc) const
    {
        // When the history is longer than the index, fold it down so
        // all bits still participate.
        const std::uint64_t h = history_.length() > indexBits_
                                    ? history_.fold(indexBits_)
                                    : history_.low64();
        return static_cast<std::size_t>((indexPc(pc) ^ h) & mask_);
    }

    PackedPhtStorage pht_;
    std::size_t mask_;
    unsigned indexBits_;
    HistoryRegister history_;

    // predict() -> update() carried state
    std::size_t lastIndex_ = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_GSHARE_HH

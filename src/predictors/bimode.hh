/**
 * @file
 * Bi-Mode predictor (Lee, Chen and Mudge, MICRO-30): splits the PHT
 * into a taken-biased and a not-taken-biased bank, with a PC-indexed
 * choice PHT selecting between them. This removes most destructive
 * aliasing between oppositely-biased branches, which is why it beats
 * plain gshare in Figure 1 of the paper.
 */

#ifndef BPSIM_PREDICTORS_BIMODE_HH
#define BPSIM_PREDICTORS_BIMODE_HH

#include "common/history.hh"
#include "common/packed_pht.hh"
#include "predictors/predictor.hh"

namespace bpsim {

/** Bi-Mode two-bank predictor with a choice PHT. */
class BiModePredictor final : public DirectionPredictor
{
  public:
    /**
     * @param direction_entries Entries in *each* direction bank
     *        (power of two).
     * @param choice_entries Entries in the choice PHT (power of two);
     *        0 means same as @p direction_entries.
     */
    explicit BiModePredictor(std::size_t direction_entries,
                             std::size_t choice_entries = 0);

    std::string name() const override { return "bimode"; }
    std::size_t storageBits() const override
    {
        return (takenBank_.size() + notTakenBank_.size() +
                choice_.size()) * 2 + history_.length();
    }
    void visitState(robust::StateVisitor &v) override;
    // Inline bodies: see the note in gshare.hh.
    bool
    predict(Addr pc) override
    {
        lastChoiceIndex_ = choiceIndex(pc);
        lastChoiceTaken_ = choice_.taken(lastChoiceIndex_);
        lastDirIndex_ = directionIndex(pc);
        lastPrediction_ = lastChoiceTaken_
                              ? takenBank_.taken(lastDirIndex_)
                              : notTakenBank_.taken(lastDirIndex_);
        return lastPrediction_;
    }

    void
    update(Addr /*pc*/, bool taken) override
    {
        // Both indices carry over from predict(): update() is always
        // paired with the predict() for the same pc, and the history
        // has not shifted in between, so recomputing them (with the
        // possible history fold) would give the same values.
        const std::size_t di = lastDirIndex_;
        // Only the bank that made the prediction is trained,
        // preserving each bank's bias.
        if (lastChoiceTaken_)
            takenBank_.update(di, taken);
        else
            notTakenBank_.update(di, taken);

        // The choice PHT trains toward the outcome, except when it
        // was overruled successfully: choice disagreed with the
        // outcome but the selected bank still predicted correctly.
        const bool selected_correct = lastPrediction_ == taken;
        if (!(lastChoiceTaken_ != taken && selected_correct))
            choice_.update(lastChoiceIndex_, taken);

        history_.shiftIn(taken);
    }

  private:
    std::size_t
    directionIndex(Addr pc) const
    {
        const std::uint64_t h = history_.length() > dirIndexBits_
                                    ? history_.fold(dirIndexBits_)
                                    : history_.low64();
        return static_cast<std::size_t>((indexPc(pc) ^ h) & dirMask_);
    }

    std::size_t
    choiceIndex(Addr pc) const
    {
        return static_cast<std::size_t>(indexPc(pc)) & choiceMask_;
    }

    PackedPhtStorage takenBank_;
    PackedPhtStorage notTakenBank_;
    PackedPhtStorage choice_;
    std::size_t dirMask_;
    std::size_t choiceMask_;
    unsigned dirIndexBits_;
    HistoryRegister history_;

    // predict() -> update() carried state
    std::size_t lastDirIndex_ = 0;
    std::size_t lastChoiceIndex_ = 0;
    bool lastChoiceTaken_ = false;
    bool lastPrediction_ = false;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_BIMODE_HH

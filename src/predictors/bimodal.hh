/**
 * @file
 * Bimodal predictor (Smith): a PC-indexed table of two-bit counters.
 *
 * The simplest dynamic predictor; serves as a baseline, as the
 * bias component of the 2Bc-gskew predictor, and as a component of
 * the multi-component hybrid.
 */

#ifndef BPSIM_PREDICTORS_BIMODAL_HH
#define BPSIM_PREDICTORS_BIMODAL_HH

#include "common/packed_pht.hh"
#include "predictors/predictor.hh"

namespace bpsim {

/** PC-indexed two-bit-counter predictor. */
class BimodalPredictor final : public DirectionPredictor
{
  public:
    /** @param entries PHT entry count; must be a power of two. */
    explicit BimodalPredictor(std::size_t entries);

    std::string name() const override { return "bimodal"; }
    std::size_t storageBits() const override { return pht_.storageBits(); }
    // Inline bodies: see the note in gshare.hh — the devirtualized
    // replay loop needs them visible to fold the per-branch step.
    bool predict(Addr pc) override { return pht_.taken(index(pc)); }
    void
    update(Addr pc, bool taken) override
    {
        pht_.update(index(pc), taken);
    }
    void visitState(robust::StateVisitor &v) override;

  private:
    std::size_t
    index(Addr pc) const
    {
        return static_cast<std::size_t>(indexPc(pc)) & mask_;
    }

    PackedPhtStorage pht_;
    std::size_t mask_;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_BIMODAL_HH

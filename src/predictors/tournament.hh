/**
 * @file
 * Alpha EV6 (21264) tournament predictor (Kessler, IEEE Micro 1999),
 * as described in Section 2.1 of the paper: a 4K-entry global
 * two-level predictor and a 1K x 10-bit local two-level predictor,
 * arbitrated by a 4K-entry chooser indexed by global history.
 */

#ifndef BPSIM_PREDICTORS_TOURNAMENT_HH
#define BPSIM_PREDICTORS_TOURNAMENT_HH

#include "common/history.hh"
#include "common/packed_pht.hh"
#include "predictors/local.hh"
#include "predictors/predictor.hh"

namespace bpsim {

/** EV6-style global/local tournament hybrid. */
class TournamentPredictor final : public DirectionPredictor
{
  public:
    /**
     * Defaults reproduce the EV6 configuration; all table sizes are
     * powers of two. The scale parameter multiplies every structure
     * for budget sweeps.
     */
    explicit TournamentPredictor(std::size_t global_entries = 4096,
                                 std::size_t local_entries = 1024,
                                 unsigned local_history_bits = 10,
                                 std::size_t chooser_entries = 4096);

    std::string name() const override { return "ev6-tournament"; }
    std::size_t storageBits() const override;
    // Inline bodies: see the note in gshare.hh.
    bool
    predict(Addr pc) override
    {
        pGlobal_ = globalPht_.taken(globalIndex());
        pLocal_ = local_.predict(pc);
        pChoseGlobal_ = chooser_.taken(chooserIndex());
        ++predicts_;
        choseGlobal_ += pChoseGlobal_ ? 1 : 0;
        return pChoseGlobal_ ? pGlobal_ : pLocal_;
    }

    void
    update(Addr pc, bool taken) override
    {
        // Chooser trains only when the components disagree.
        if (pGlobal_ != pLocal_)
            chooser_.update(chooserIndex(), pGlobal_ == taken);
        globalPht_.update(globalIndex(), taken);
        local_.update(pc, taken);
        history_.shiftIn(taken);
    }

    std::vector<PredictorStat> describeStats() const override;
    void visitState(robust::StateVisitor &v) override;

  private:
    std::size_t
    globalIndex() const
    {
        // EV6 indexes the global PHT purely by global history.
        return static_cast<std::size_t>(history_.low64()) &
               globalMask_;
    }

    std::size_t
    chooserIndex() const
    {
        return static_cast<std::size_t>(history_.low64()) &
               chooserMask_;
    }

    PackedPhtStorage globalPht_;
    LocalPredictor local_;
    PackedPhtStorage chooser_;
    std::size_t globalMask_;
    std::size_t chooserMask_;
    HistoryRegister history_;

    bool pGlobal_ = false, pLocal_ = false, pChoseGlobal_ = false;

    // per-table contribution accounting (describeStats)
    Counter predicts_ = 0;
    Counter choseGlobal_ = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_TOURNAMENT_HH

#include "predictors/bimode.hh"

#include <cassert>

#include "common/bitutil.hh"
#include "robust/state_visitor.hh"

namespace bpsim {

BiModePredictor::BiModePredictor(std::size_t direction_entries,
                                 std::size_t choice_entries)
    : takenBank_(direction_entries, 2), // taken bank starts weakly taken
      notTakenBank_(direction_entries, 1),
      choice_(choice_entries == 0 ? direction_entries : choice_entries),
      dirMask_(direction_entries - 1),
      choiceMask_(choice_.size() - 1),
      dirIndexBits_(floorLog2(direction_entries)),
      history_(floorLog2(direction_entries))
{
    assert(isPowerOfTwo(direction_entries));
    assert(isPowerOfTwo(choice_.size()));
}

void
BiModePredictor::visitState(robust::StateVisitor &v)
{
    // An invalidated taken-bank counter goes back to its initial
    // weakly-taken state, like the bank itself.
    v.visit(robust::packedCounterField("pred.bimode.taken_bank",
                                       takenBank_, 2));
    v.visit(robust::packedCounterField("pred.bimode.not_taken_bank",
                                       notTakenBank_));
    v.visit(robust::packedCounterField("pred.bimode.choice", choice_));
    v.visit(robust::historyField("pred.bimode.history", history_));
}

} // namespace bpsim

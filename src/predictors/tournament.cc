#include "predictors/tournament.hh"

#include <cassert>

#include "common/bitutil.hh"
#include "robust/state_visitor.hh"

namespace bpsim {

TournamentPredictor::TournamentPredictor(std::size_t global_entries,
                                         std::size_t local_entries,
                                         unsigned local_history_bits,
                                         std::size_t chooser_entries)
    : globalPht_(global_entries),
      local_(local_entries, local_history_bits,
             std::size_t{1} << local_history_bits, 3),
      chooser_(chooser_entries),
      globalMask_(global_entries - 1),
      chooserMask_(chooser_entries - 1),
      history_(floorLog2(global_entries))
{
    assert(isPowerOfTwo(global_entries));
    assert(isPowerOfTwo(chooser_entries));
}

std::size_t
TournamentPredictor::storageBits() const
{
    return globalPht_.storageBits() + local_.storageBits() +
           chooser_.storageBits() + history_.length();
}

void
TournamentPredictor::visitState(robust::StateVisitor &v)
{
    v.visit(robust::packedCounterField("pred.tournament.global_pht",
                                       globalPht_));
    // The local component's fields are prefixed, as multicomponent
    // prefixes its components.
    robust::PrefixingStateVisitor local(v, "pred.tournament.local.");
    local_.visitState(local);
    v.visit(robust::packedCounterField("pred.tournament.chooser",
                                       chooser_));
    v.visit(robust::historyField("pred.tournament.history", history_));
}

std::vector<PredictorStat>
TournamentPredictor::describeStats() const
{
    const double n = predicts_ ? static_cast<double>(predicts_) : 1.0;
    const double global_share = static_cast<double>(choseGlobal_) / n;
    std::size_t chooser_strong = 0;
    for (std::size_t i = 0; i < chooser_.size(); ++i)
        chooser_strong += !chooser_.weak(i) ? 1 : 0;
    return {
        {"pred.tournament.contribution{component=global}",
         global_share},
        {"pred.tournament.contribution{component=local}",
         1.0 - global_share},
        {"pred.tournament.chooser_strong_fraction",
         static_cast<double>(chooser_strong) /
             static_cast<double>(chooser_.size())},
        {"pred.tournament.predicts",
         static_cast<double>(predicts_)},
    };
}

} // namespace bpsim

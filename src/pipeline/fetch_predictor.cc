#include "pipeline/fetch_predictor.hh"

namespace bpsim {

PredictionColumn
predictColumn(FetchPredictor &pred, const TraceBuffer &trace)
{
    const BranchSpan view = trace.branchView();
    PredictionColumn column;
    column.reserve(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
        const FetchPrediction fp = pred.predict(view.pc(i));
        pred.update(view.pc(i), view.taken(i));
        column.push(fp.taken, fp.bubbleCycles);
    }
    return column;
}

} // namespace bpsim

#include "pipeline/fetch_predictor.hh"

#include <stdexcept>
#include <utility>

namespace bpsim {

namespace {

bool
hasQuick(DelayMode mode)
{
    return mode == DelayMode::Overriding || mode == DelayMode::Cascading;
}

} // namespace

std::string
delayModeName(DelayMode mode)
{
    switch (mode) {
      case DelayMode::Ideal:
        return "ideal";
      case DelayMode::Overriding:
        return "overriding";
      case DelayMode::Stall:
        return "stall";
      case DelayMode::Pipelined:
        return "pipelined";
      case DelayMode::DualPath:
        return "dual-path";
      case DelayMode::Cascading:
        return "cascading";
    }
    return "unknown";
}

FetchPredictor::FetchPredictor(DelayMode mode,
                               std::unique_ptr<DirectionPredictor> slow,
                               unsigned latency,
                               std::unique_ptr<DirectionPredictor> quick)
    : mode_(mode),
      slow_(std::move(slow)),
      latency_(latency),
      quick_(std::move(quick))
{
    if (!slow_ || latency_ < 1)
        throw std::invalid_argument(
            "FetchPredictor: needs a slow predictor and latency >= 1");
    if (hasQuick(mode_) != (quick_ != nullptr))
        throw std::invalid_argument(
            "FetchPredictor: " + delayModeName(mode_) +
            (hasQuick(mode_) ? " needs" : " takes no") +
            " quick predictor");
}

std::string
FetchPredictor::name() const
{
    switch (mode_) {
      case DelayMode::Ideal:
      case DelayMode::Pipelined:
        return slow_->name();
      case DelayMode::Overriding:
        return slow_->name() + "+overriding";
      case DelayMode::Stall:
        return slow_->name() + "+stall";
      case DelayMode::DualPath:
        return slow_->name() + "+dualpath";
      case DelayMode::Cascading:
        return slow_->name() + "+cascading";
    }
    return slow_->name();
}

std::size_t
FetchPredictor::storageBits() const
{
    return slow_->storageBits() + (quick_ ? quick_->storageBits() : 0);
}

bool
FetchPredictor::predictCascading(Addr pc)
{
    ++now_;
    const bool q = quick_->predict(pc);
    const bool s = slow_->predict(pc);
    bool used;
    const auto it = banked_.find(pc);
    if (it != banked_.end() && it->second.readyAt <= now_) {
        // The banked slow prediction arrived in time.
        used = it->second.taken;
        slowUsed_.event(true);
    } else {
        used = q;
        slowUsed_.event(false);
    }
    // Bank this access's slow answer for the next instance.
    banked_[pc] = {now_ + latency_, s};
    return used;
}

void
FetchPredictor::update(Addr pc, bool taken)
{
    if (quick_)
        quick_->update(pc, taken);
    slow_->update(pc, taken);
}

std::vector<PredictorStat>
FetchPredictor::describeStats() const
{
    std::vector<PredictorStat> stats = slow_->describeStats();
    if (mode_ == DelayMode::Overriding) {
        stats.push_back({"fetch.overriding.disagree_rate",
                         disagreements_.rate()});
        stats.push_back(
            {"fetch.overriding.pipeline_restarts",
             static_cast<double>(disagreements_.hits())});
        stats.push_back({"fetch.overriding.slow_latency_cycles",
                         static_cast<double>(latency_)});
    }
    return stats;
}

void
FetchPredictor::visitState(robust::StateVisitor &v)
{
    if (quick_)
        quick_->visitState(v);
    slow_->visitState(v);
}

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

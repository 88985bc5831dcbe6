/**
 * @file
 * Fetch-side predictor wrappers: how a direction predictor's access
 * delay presents itself to the fetch engine.
 *
 * The timing simulator consumes this interface through a
 * PredictionColumn (predictColumn() below). Every wrapper
 * returns a final direction plus the number of fetch-bubble cycles
 * the prediction costs *even when it is correct*:
 *
 *  - SingleCycleFetchPredictor: zero bubbles. Used for the paper's
 *    ideal (zero-delay) configurations and for gshare.fast, whose
 *    pipelining delivers every prediction in one cycle (Section 3).
 *  - OverridingFetchPredictor: a quick single-cycle predictor is
 *    overridden by a slow, accurate one; when they disagree the
 *    instructions fetched meanwhile are squashed, costing bubbles
 *    equal to the slow predictor's access latency (the paper's
 *    optimistic assumption, Section 4.1.2).
 *  - DelayedFetchPredictor: no delay hiding at all — every branch
 *    stalls fetch for (latency - 1) cycles. Used in ablations to
 *    show why overriding exists.
 */

#ifndef BPSIM_PIPELINE_FETCH_PREDICTOR_HH
#define BPSIM_PIPELINE_FETCH_PREDICTOR_HH

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "pipeline/prediction_column.hh"
#include "predictors/predictor.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/** A direction prediction plus its fetch-bubble cost. */
struct FetchPrediction
{
    bool taken = false;
    /** Fetch bubbles charged even if the prediction is correct. */
    unsigned bubbleCycles = 0;
};

/** Fetch-engine view of a (possibly delay-hidden) predictor. */
class FetchPredictor
{
  public:
    virtual ~FetchPredictor() = default;

    virtual std::string name() const = 0;
    virtual std::size_t storageBits() const = 0;
    virtual FetchPrediction predict(Addr pc) = 0;
    virtual void update(Addr pc, bool taken) = 0;

    /**
     * Internal statistics for reports: wrappers forward their inner
     * predictor's describeStats() and add their own delay-hiding
     * counters (disagreements, pipeline restarts).
     */
    virtual std::vector<PredictorStat> describeStats() const
    {
        return {};
    }

    /**
     * Expose the wrapped predictors' SRAM state for fault injection
     * (robust/state_visitor.hh); wrappers forward to every inner
     * predictor. Default exposes nothing.
     */
    virtual void visitState(robust::StateVisitor &v) { (void)v; }
};

/** Zero-bubble wrapper: ideal predictors and gshare.fast. */
class SingleCycleFetchPredictor : public FetchPredictor
{
  public:
    explicit SingleCycleFetchPredictor(
        std::unique_ptr<DirectionPredictor> pred)
        : pred_(std::move(pred))
    {
        assert(pred_);
    }

    std::string name() const override { return pred_->name(); }
    std::size_t storageBits() const override
    {
        return pred_->storageBits();
    }

    FetchPrediction
    predict(Addr pc) override
    {
        return {pred_->predict(pc), 0};
    }

    void update(Addr pc, bool taken) override
    {
        pred_->update(pc, taken);
    }

    std::vector<PredictorStat> describeStats() const override
    {
        return pred_->describeStats();
    }

    void visitState(robust::StateVisitor &v) override
    {
        pred_->visitState(v);
    }

    DirectionPredictor &inner() { return *pred_; }

  private:
    std::unique_ptr<DirectionPredictor> pred_;
};

/**
 * Hierarchical overriding wrapper (Section 2.6.1): quick predictor
 * answers in one cycle; the slow predictor's answer arrives
 * slowLatency cycles later and, when it disagrees, squashes the
 * fetched instructions at a cost of slowLatency bubbles.
 */
class OverridingFetchPredictor : public FetchPredictor
{
  public:
    OverridingFetchPredictor(std::unique_ptr<DirectionPredictor> quick,
                             std::unique_ptr<DirectionPredictor> slow,
                             unsigned slow_latency)
        : quick_(std::move(quick)),
          slow_(std::move(slow)),
          slowLatency_(slow_latency)
    {
        assert(quick_ && slow_ && slow_latency >= 1);
    }

    std::string name() const override
    {
        return slow_->name() + "+overriding";
    }
    std::size_t storageBits() const override
    {
        return quick_->storageBits() + slow_->storageBits();
    }

    FetchPrediction
    predict(Addr pc) override
    {
        const bool q = quick_->predict(pc);
        const bool s = slow_->predict(pc);
        const bool disagree = q != s;
        disagreements_.event(disagree);
        // The slow predictor's answer is final; disagreement costs
        // its access latency in squashed fetch cycles.
        return {s, disagree ? slowLatency_ : 0};
    }

    void
    update(Addr pc, bool taken) override
    {
        quick_->update(pc, taken);
        slow_->update(pc, taken);
    }

    std::vector<PredictorStat>
    describeStats() const override
    {
        std::vector<PredictorStat> stats = slow_->describeStats();
        stats.push_back({"fetch.overriding.disagree_rate",
                         disagreements_.rate()});
        stats.push_back(
            {"fetch.overriding.pipeline_restarts",
             static_cast<double>(disagreements_.hits())});
        stats.push_back({"fetch.overriding.slow_latency_cycles",
                         static_cast<double>(slowLatency_)});
        return stats;
    }

    void visitState(robust::StateVisitor &v) override
    {
        quick_->visitState(v);
        slow_->visitState(v);
    }

    /** Fraction of predictions the slow predictor overrode (E10). */
    const RateStat &disagreements() const { return disagreements_; }
    /** Fetch-pipeline restarts caused by overrides (== hits()). */
    Counter pipelineRestarts() const { return disagreements_.hits(); }
    unsigned slowLatency() const { return slowLatency_; }
    DirectionPredictor &slow() { return *slow_; }
    DirectionPredictor &quick() { return *quick_; }

  private:
    std::unique_ptr<DirectionPredictor> quick_;
    std::unique_ptr<DirectionPredictor> slow_;
    unsigned slowLatency_;
    RateStat disagreements_;
};

/** No delay hiding: every branch pays (latency - 1) fetch bubbles. */
class DelayedFetchPredictor : public FetchPredictor
{
  public:
    DelayedFetchPredictor(std::unique_ptr<DirectionPredictor> pred,
                          unsigned latency)
        : pred_(std::move(pred)), latency_(latency)
    {
        assert(pred_ && latency >= 1);
    }

    std::string name() const override
    {
        return pred_->name() + "+stall";
    }
    std::size_t storageBits() const override
    {
        return pred_->storageBits();
    }

    FetchPrediction
    predict(Addr pc) override
    {
        return {pred_->predict(pc), latency_ - 1};
    }

    void update(Addr pc, bool taken) override
    {
        pred_->update(pc, taken);
    }

    std::vector<PredictorStat> describeStats() const override
    {
        return pred_->describeStats();
    }

    void visitState(robust::StateVisitor &v) override
    {
        pred_->visitState(v);
    }

    DirectionPredictor &inner() { return *pred_; }

  private:
    std::unique_ptr<DirectionPredictor> pred_;
    unsigned latency_;
};

/**
 * The column pass of a timing cell: replay every conditional branch
 * of @p trace through @p pred, in trace order, with the same
 * predict-then-update pair the fetch engine makes, and record each
 * answer. The predictor's describeStats() afterwards is what a timing
 * run's would be.
 */
PredictionColumn predictColumn(FetchPredictor &pred,
                               const TraceBuffer &trace);

} // namespace bpsim

#endif // BPSIM_PIPELINE_FETCH_PREDICTOR_HH

/**
 * @file
 * The fetch-side view of a direction predictor: how its access delay
 * presents itself to the fetch engine.
 *
 * The timing simulator consumes a FetchPredictor through a
 * PredictionColumn (predictColumn() below). Every prediction is a
 * final direction plus the number of fetch-bubble cycles it costs
 * *even when it is correct*. Each delay mode of Section 2.6 is a small
 * rule over two answers, the quick single-cycle predictor's (q) and
 * the slow predictor's (s), with L the slow predictor's latency:
 *
 *  - Ideal / Pipelined: s, zero bubbles. Used for the paper's ideal
 *    (zero-delay) configurations and for gshare.fast, whose
 *    pipelining delivers every prediction in one cycle (Section 3).
 *  - Overriding: s, with L bubbles where q != s: the instructions
 *    fetched down q's path are squashed (the paper's optimistic
 *    assumption, Section 4.1.2).
 *  - Stall: s, with L - 1 bubbles on every branch: no delay hiding
 *    at all, used in ablations to show why overriding exists.
 *  - DualPath: s, with L / 2 bubbles on every branch: both paths are
 *    fetched at half bandwidth for L cycles (Section 2.6.2).
 *  - Cascading: zero bubbles; the slow answer is banked per pc and
 *    used for that branch's *next* instance once L branches have
 *    passed, q otherwise (Driesen and Hoelzle).
 */

#ifndef BPSIM_PIPELINE_FETCH_PREDICTOR_HH
#define BPSIM_PIPELINE_FETCH_PREDICTOR_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "pipeline/prediction_column.hh"
#include "predictors/predictor.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/** How a predictor's delay is presented to the fetch engine. */
enum class DelayMode {
    Ideal,      ///< zero-delay (the paper's "No Delay" curves)
    Overriding, ///< quick 2K gshare + slow predictor (realistic)
    Stall,      ///< no hiding: fetch stalls for the full latency
    Pipelined,  ///< single-cycle by construction (gshare.fast only)
    DualPath,   ///< fetch both paths at half bandwidth (Section 2.6.2)
    Cascading,  ///< bank the slow answer for the next instance
};

/** Printable delay-mode name. */
std::string delayModeName(DelayMode mode);

/** A direction prediction plus its fetch-bubble cost. */
struct FetchPrediction
{
    bool taken = false;
    /** Fetch bubbles charged even if the prediction is correct. */
    unsigned bubbleCycles = 0;
};

/** A slow direction predictor behind one delay mode. */
class FetchPredictor final
{
  public:
    /**
     * @p slow answers in every mode, @p latency cycles after the
     * request (>= 1). @p quick, the single-cycle front predictor, is
     * required by Overriding and Cascading and must be null in every
     * other mode; std::invalid_argument otherwise.
     */
    FetchPredictor(DelayMode mode, std::unique_ptr<DirectionPredictor> slow,
                   unsigned latency = 1,
                   std::unique_ptr<DirectionPredictor> quick = nullptr);

    /** The slow predictor's name, suffixed by the delay mode unless
     *  the mode is ideal or pipelined. */
    std::string name() const;
    /** Quick plus slow; the cascading bank is idealized and free. */
    std::size_t storageBits() const;

    FetchPrediction
    predict(Addr pc)
    {
        switch (mode_) {
          case DelayMode::Ideal:
          case DelayMode::Pipelined:
            return {slow_->predict(pc), 0};
          case DelayMode::Overriding: {
            const bool q = quick_->predict(pc);
            const bool s = slow_->predict(pc);
            const bool disagree = q != s;
            disagreements_.event(disagree);
            return {s, disagree ? latency_ : 0};
          }
          case DelayMode::Stall:
            return {slow_->predict(pc), latency_ - 1};
          case DelayMode::DualPath:
            return {slow_->predict(pc), latency_ / 2};
          case DelayMode::Cascading:
            return {predictCascading(pc), 0};
        }
        return {};
    }

    void update(Addr pc, bool taken);

    /**
     * The slow predictor's describeStats() in every mode; overriding
     * appends its disagreement rate, pipeline restarts and latency.
     */
    std::vector<PredictorStat> describeStats() const;

    /**
     * Expose the quick and slow predictors' SRAM state for fault
     * injection (robust/state_visitor.hh): exactly what storageBits()
     * counts.
     */
    void visitState(robust::StateVisitor &v);

    DelayMode mode() const { return mode_; }
    unsigned slowLatency() const { return latency_; }
    DirectionPredictor &slow() { return *slow_; }
    /** The quick predictor; only Overriding and Cascading have one. */
    DirectionPredictor &quick() { return *quick_; }
    /** Overriding: fraction of predictions the slow one overrode. */
    const RateStat &disagreements() const { return disagreements_; }
    /** Cascading: fraction served by a banked slow answer. */
    const RateStat &slowUsed() const { return slowUsed_; }

  private:
    struct Banked
    {
        Counter readyAt;
        bool taken;
    };

    bool predictCascading(Addr pc);

    DelayMode mode_;
    std::unique_ptr<DirectionPredictor> slow_;
    unsigned latency_;
    std::unique_ptr<DirectionPredictor> quick_;
    RateStat disagreements_;
    /** Cascading's clock: one branch per cycle, the same worst case
     *  the gshare.fast analysis uses. */
    Counter now_ = 0;
    /** Idealized unbounded prediction bank, generous to cascading
     *  (a real design would use a small tagged cache here). */
    std::unordered_map<Addr, Banked> banked_;
    RateStat slowUsed_;
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

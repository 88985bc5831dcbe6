/**
 * @file
 * Alternative delay-hiding organizations from Section 2.6 of the
 * paper, against which overriding was originally established:
 *
 *  - Dual-path fetch (Section 2.6.2, AMD Hammer): while a slow
 *    prediction is computed the front end fetches down both paths,
 *    halving fetch bandwidth for the predictor's latency instead of
 *    squashing on disagreement.
 *  - Cascading (Driesen and Hoelzle; also "lookahead" Yeh/Marr/Patt):
 *    the slow predictor's output, which arrives too late for the
 *    current instance of a branch, is banked and used for that
 *    branch's *next* instance; if the next instance arrives before
 *    the slow table access completes, a quick prediction is used
 *    instead.
 *
 * Both present as FetchPredictor wrappers so the timing simulator
 * and benches can compare them directly with overriding (the paper
 * cites [7] for overriding winning this comparison; the
 * ablation_delay_hiding bench reproduces it).
 */

#ifndef BPSIM_PIPELINE_ALT_DELAY_HIDING_HH
#define BPSIM_PIPELINE_ALT_DELAY_HIDING_HH

#include <cassert>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/stats.hh"
#include "pipeline/fetch_predictor.hh"

namespace bpsim {

/**
 * Dual-path fetch: no squash penalty, but every conditional branch
 * halves fetch bandwidth for the slow predictor's latency while both
 * paths are fetched — equivalent to latency/2 lost fetch cycles.
 * The slow predictor's direction is always the one used (both paths
 * are in flight, the right one is kept).
 */
class DualPathFetchPredictor : public FetchPredictor
{
  public:
    DualPathFetchPredictor(std::unique_ptr<DirectionPredictor> slow,
                           unsigned slow_latency)
        : slow_(std::move(slow)), slowLatency_(slow_latency)
    {
        assert(slow_ && slow_latency >= 1);
    }

    std::string name() const override
    {
        return slow_->name() + "+dualpath";
    }
    std::size_t storageBits() const override
    {
        return slow_->storageBits();
    }

    FetchPrediction
    predict(Addr pc) override
    {
        // Half bandwidth for slowLatency_ cycles == slowLatency_/2
        // full-bandwidth fetch cycles lost, on *every* branch.
        return {slow_->predict(pc), slowLatency_ / 2};
    }

    void update(Addr pc, bool taken) override
    {
        slow_->update(pc, taken);
    }

    void visitState(robust::StateVisitor &v) override
    {
        slow_->visitState(v);
    }

    unsigned slowLatency() const { return slowLatency_; }
    DirectionPredictor &slow() { return *slow_; }

  private:
    std::unique_ptr<DirectionPredictor> slow_;
    unsigned slowLatency_;
};

/**
 * Cascading predictor: a quick predictor answers instantly; the slow
 * predictor's answer is banked against the branch's address and used
 * the *next* time that branch is fetched — but only if at least
 * slowLatency branches have passed since it was requested (branch
 * count approximates elapsed cycles at one branch per cycle, the
 * same worst-case the gshare.fast analysis uses).
 */
class CascadingFetchPredictor : public FetchPredictor
{
  public:
    CascadingFetchPredictor(std::unique_ptr<DirectionPredictor> quick,
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
        return slow_->name() + "+cascading";
    }
    std::size_t storageBits() const override
    {
        return quick_->storageBits() + slow_->storageBits();
    }

    FetchPrediction
    predict(Addr pc) override
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
        banked_[pc] = {now_ + slowLatency_, s};
        return {used, 0};
    }

    void
    update(Addr pc, bool taken) override
    {
        quick_->update(pc, taken);
        slow_->update(pc, taken);
    }

    /** The two predictors storageBits() counts; the prediction bank
     *  is idealized and charged nothing, so it is not exposed. */
    void visitState(robust::StateVisitor &v) override
    {
        quick_->visitState(v);
        slow_->visitState(v);
    }

    /** Fraction of predictions served by the banked slow result. */
    const RateStat &slowUsed() const { return slowUsed_; }

    DirectionPredictor &quick() { return *quick_; }
    DirectionPredictor &slow() { return *slow_; }

  private:
    struct Banked
    {
        Counter readyAt;
        bool taken;
    };

    std::unique_ptr<DirectionPredictor> quick_;
    std::unique_ptr<DirectionPredictor> slow_;
    unsigned slowLatency_;
    Counter now_ = 0;
    /** Idealized unbounded prediction bank — generous to cascading
     *  (a real design would use a small tagged cache here). */
    std::unordered_map<Addr, Banked> banked_;
    RateStat slowUsed_;
};

} // namespace bpsim

#endif // BPSIM_PIPELINE_ALT_DELAY_HIDING_HH

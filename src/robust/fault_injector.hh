/**
 * @file
 * SRAM soft-error (single-event-upset) injection.
 *
 * A FaultPlan describes an upset model: with what probability each
 * SRAM bit flips per injection event, how often events fire (every N
 * predictor updates), and which state fields are eligible. The
 * FaultInjector is a StateVisitor that walks a predictor's exposed
 * fields and flips bits accordingly, driven by the repo's xorshift
 * RNG so every campaign is deterministic and reproducible.
 *
 * Sampling: per field, the number of flips is drawn once (Poisson
 * for small expected counts, a Gaussian approximation beyond — both
 * from our own Rng, never the standard library's distributions) and
 * then that many uniformly random bit positions are flipped. This is
 * equivalent to per-bit Bernoulli trials for the upset rates of
 * interest but costs O(flips), not O(total bits), so megabit PHTs
 * stay cheap to bombard.
 */

#ifndef BPSIM_ROBUST_FAULT_INJECTOR_HH
#define BPSIM_ROBUST_FAULT_INJECTOR_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "predictors/predictor.hh"
#include "robust/state_visitor.hh"

namespace bpsim::robust {

/** The upset model driving a FaultInjector. */
struct FaultPlan
{
    /** Probability each SRAM bit flips per injection event. */
    double upsetRatePerBit = 0.0;
    /** Predictor updates between injection events. */
    Counter intervalBranches = 4096;
    /** RNG seed; same plan + seed => identical flip sequence. */
    std::uint64_t seed = 0x5eedfa17;
    /** Only fields whose name starts with this are hit ("" = all). */
    std::string targetPrefix;
    /** Additional eligible prefixes (any-of, alongside
     *  targetPrefix). */
    std::vector<std::string> targetPrefixes;
    /** Exact field names to hit (any-of, alongside the prefixes).
     *  The vulnerability-ranking pass bombards one field at a time
     *  through this. */
    std::vector<std::string> targetFields;

    /** True when @p field_name is eligible under the plan: no
     *  targeting at all means every field, otherwise the name must
     *  match one prefix or one exact name. */
    bool matches(const std::string &field_name) const;
};

class ProtectionLayer;

/** Walks visitState() fields and flips bits per a FaultPlan. */
class FaultInjector : public StateVisitor
{
  public:
    /** @p layer, when given, records every flip as it lands — the
     *  field's ordinal in the event's visitState() walk (stable from
     *  event to event, and distinct for same-named fields), the
     *  field, the element, the bit and the element's value *before*
     *  the flip — so detection/repair replays the exact injection
     *  stream. Recording does not perturb sampling. */
    explicit FaultInjector(const FaultPlan &plan,
                           ProtectionLayer *layer = nullptr);

    /**
     * Run one injection event: walk @p target's visitState() and
     * flip bits per the plan. Throws std::invalid_argument, naming
     * the plan's targets, when no field matched them (a mistyped
     * prefix, or a predictor that exposes no state): an event that
     * flips nothing by accident would pass for a fault-free run.
     */
    template <class Target>
    void
    inject(Target &target)
    {
        ++events_;
        fieldOrdinal_ = 0;
        fieldsMatched_ = 0;
        target.visitState(*this);
        if (fieldsMatched_ == 0)
            throwNothingMatched();
    }

    /** Called by inject()'s walk, once per field. */
    void visit(const StateField &field) override;

    /** Total bits flipped so far. */
    Counter flips() const { return flips_; }
    /** Total SRAM bits visited (eligible fields, all events). */
    Counter bitsVisited() const { return bitsVisited_; }
    /** Injection events (inject() calls) run. */
    Counter events() const { return events_; }
    /** Per-field flip tallies. */
    const std::map<std::string, Counter> &flipsByField() const
    {
        return flipsByField_;
    }

    const FaultPlan &plan() const { return plan_; }

  private:
    std::size_t sampleFlipCount(std::size_t total_bits);
    [[noreturn]] void throwNothingMatched() const;

    FaultPlan plan_;
    Rng rng_;
    ProtectionLayer *layer_;
    Counter flips_ = 0;
    Counter bitsVisited_ = 0;
    Counter events_ = 0;
    std::size_t fieldOrdinal_ = 0;  ///< fields walked this event
    std::size_t fieldsMatched_ = 0; ///< of which the plan matched
    std::map<std::string, Counter> flipsByField_;
};

/**
 * Direction-predictor decorator that periodically bombards its inner
 * predictor's SRAM per a FaultPlan: every plan.intervalBranches
 * updates, one injection event walks the inner visitState(). Used by
 * the soft-error study and the robustness tests; composes with every
 * delay mode since it is itself a DirectionPredictor.
 */
class FaultInjectingPredictor : public DirectionPredictor
{
  public:
    FaultInjectingPredictor(std::unique_ptr<DirectionPredictor> inner,
                            const FaultPlan &plan);

    std::string name() const override { return inner_->name(); }
    std::size_t storageBits() const override
    {
        return inner_->storageBits();
    }
    bool predict(Addr pc) override { return inner_->predict(pc); }
    void update(Addr pc, bool taken) override;
    std::vector<PredictorStat> describeStats() const override;
    void visitState(StateVisitor &v) override
    {
        inner_->visitState(v);
    }

    const FaultInjector &injector() const { return injector_; }
    DirectionPredictor &inner() { return *inner_; }

  private:
    std::unique_ptr<DirectionPredictor> inner_;
    FaultInjector injector_;
    Counter toInject_; ///< updates left to the next event (0: never)
};

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_FAULT_INJECTOR_HH

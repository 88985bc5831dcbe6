/**
 * @file
 * Multi-component hybrid predictor (Evers, "Improving Branch
 * Prediction by Understanding Branch Behavior", PhD thesis,
 * University of Michigan, 2000) — the second of the paper's two
 * "most accurate known" predictors.
 *
 * Several two-level components observe the same branch stream
 * through different *global* history lengths, so each captures
 * correlation at a different distance; a *local*-history two-level
 * component covers self-correlated (loop/periodic) branches and a
 * bimodal component covers biased branches. A PC-indexed selector
 * holds one two-bit confidence counter per component and predicts
 * with the most-confident component (ties go to the longer
 * history). Confidence adapts per branch: on a hybrid
 * misprediction, components that were right gain confidence and
 * components that were wrong lose it.
 *
 * This organization is exactly what Section 2.2 of the paper calls
 * complex: multiple large tables plus selection logic between them,
 * all on the prediction critical path.
 */

#ifndef BPSIM_PREDICTORS_MULTICOMPONENT_HH
#define BPSIM_PREDICTORS_MULTICOMPONENT_HH

#include <array>
#include <memory>
#include <vector>

#include "common/sat_counter.hh"
#include "predictors/bimodal.hh"
#include "predictors/gshare.hh"
#include "predictors/local.hh"
#include "predictors/predictor.hh"

namespace bpsim {

/** Evers-style multi-component hybrid with confidence selection. */
class MultiComponentPredictor final : public DirectionPredictor
{
  public:
    /** One global two-level component: table size and history. */
    struct ComponentSpec
    {
        std::size_t entries;
        unsigned historyBits;
    };

    /**
     * @param global_specs Table size and global history length for
     *        each two-level component, ascending history (bimodal
     *        and local-history components are always added first).
     * @param selector_entries Selector table entries (power of two).
     * @param local_entries Local-history table entries (power of
     *        two); 0 omits the local component.
     * @param bimodal_entries Bimodal component entries.
     */
    MultiComponentPredictor(std::vector<ComponentSpec> global_specs,
                            std::size_t selector_entries,
                            std::size_t local_entries = 1024,
                            std::size_t bimodal_entries = 1024);

    // The slot view points at the typed members; a copied or moved
    // instance would keep aiming at the source's components.
    MultiComponentPredictor(const MultiComponentPredictor &) = delete;
    MultiComponentPredictor &
    operator=(const MultiComponentPredictor &) = delete;

    std::string name() const override { return "multicomponent"; }
    std::size_t storageBits() const override;

    // predict/update are defined inline so the whole per-branch step
    // — every component's table lookup plus selection — folds into
    // straight-line code in the devirtualized replay loop
    // (core/dispatch.hh). The components are held by concrete type
    // for the same reason: with unique_ptr<DirectionPredictor> slots
    // this predictor paid ~12 virtual calls per branch, which made
    // it (with the perceptron) the dominant cost of the fig1/fig5
    // sweeps.
    bool
    predict(Addr pc) override
    {
        const std::size_t base = selectorIndex(pc);
        std::size_t best = 0;
        std::size_t c = 0;
        unsigned best_conf = 0;
        // >= so that ties pick the longest-history component, which
        // Evers found captures the most correlation when confident.
        // Written as unconditional selects, not an if: which
        // component leads is data-dependent and effectively random,
        // so a branchy max-scan mispredicts its way through all five
        // slots.
        const auto consider = [&](bool pred) {
            componentPreds_[c] = pred;
            const unsigned conf = selector_[base + c].value();
            const bool better = conf >= best_conf;
            best_conf = better ? conf : best_conf;
            best = better ? c : best;
            ++c;
        };
        consider(bimodal_.predict(pc));
        if (local_)
            consider(local_->predict(pc));
        for (GsharePredictor &g : globals_)
            consider(g.predict(pc));
        chosen_ = best;
        selectorBase_ = base;
        lastPrediction_ = componentPreds_[chosen_];
        ++predicts_;
        ++chosenCounts_[chosen_];
        return lastPrediction_;
    }

    void
    update(Addr pc, bool taken) override
    {
        // selectorBase_ carries predict()'s index, like chosen_ and
        // componentPreds_ — update() is always paired with the
        // predict() for the same pc.
        const std::size_t base = selectorBase_;
        if (lastPrediction_ == taken) {
            // The hybrid was right: the rank rule reinforces only
            // the chosen component and leaves the others alone
            // (Evers' rule — demoting them on every success makes
            // the selector thrash on noisy branches), so the
            // per-component scan reduces to one increment.
            selector_[base + chosen_].increment();
            bimodal_.update(pc, taken);
            if (local_)
                local_->update(pc, taken);
            for (GsharePredictor &g : globals_)
                g.update(pc, taken);
            return;
        }
        // The selection failed: re-rank every component so a
        // component that handles this branch takes over.
        std::size_t c = 0;
        const auto rank = [&] {
            if (componentPreds_[c] == taken)
                selector_[base + c].increment();
            else
                selector_[base + c].decrement();
            ++c;
        };
        rank();
        bimodal_.update(pc, taken);
        if (local_) {
            rank();
            local_->update(pc, taken);
        }
        for (GsharePredictor &g : globals_) {
            rank();
            g.update(pc, taken);
        }
    }

    std::vector<PredictorStat> describeStats() const override;
    void visitState(robust::StateVisitor &v) override;

    /** Number of components including the bimodal one. */
    std::size_t numComponents() const { return components_.size(); }

    /** Hard cap on components (bimodal + local + globals). */
    static constexpr std::size_t kMaxComponents = 8;

  private:
    std::size_t
    selectorIndex(Addr pc) const
    {
        return (static_cast<std::size_t>(indexPc(pc)) &
                selectorMask_) *
               components_.size();
    }

    // Typed component storage, hot-path order: bimodal, optional
    // local, then the global components ascending history.
    BimodalPredictor bimodal_;
    std::unique_ptr<LocalPredictor> local_;
    std::vector<GsharePredictor> globals_;
    /** Non-owning slot view in the same order, for the cold paths
     *  (visitState, describeStats, storageBits) — slot numbering is
     *  part of the fault-plan/ledger naming contract. */
    std::vector<DirectionPredictor *> components_;

    /** selector_[entry * numComponents + c] */
    std::vector<SatCounter> selector_;
    std::size_t selectorMask_;

    // predict() -> update() carried state. A fixed bool array, not
    // vector<uint8_t>: byte-typed stores may alias anything, so each
    // one forced the compiler to reload every table pointer in the
    // per-branch loop; bool stores don't, and the fixed size drops
    // the heap indirection.
    std::array<bool, kMaxComponents> componentPreds_{};
    std::size_t chosen_ = 0;
    std::size_t selectorBase_ = 0;
    bool lastPrediction_ = false;

    // per-component selection accounting (describeStats)
    std::vector<Counter> chosenCounts_;
    Counter predicts_ = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_MULTICOMPONENT_HH

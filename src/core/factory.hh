/**
 * @file
 * Predictor factory: builds every predictor the paper evaluates at a
 * given hardware budget, and computes its access latency with the
 * CACTI-lite model (Table 2).
 *
 * Budget conventions follow Section 4.1.4: gshare-family predictors
 * use all of the budget as one PHT with history length log2(entries);
 * 2Bc-gskew splits the budget across its four banks; the perceptron
 * and multi-component configurations are re-derived from their
 * source papers' descriptions, scaled so total state matches each
 * budget point (see DESIGN.md §4).
 */

#ifndef BPSIM_CORE_FACTORY_HH
#define BPSIM_CORE_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "delay/clock_model.hh"
#include "delay/sram_model.hh"
#include "pipeline/fetch_predictor.hh"
#include "predictors/predictor.hh"
#include "robust/fault_injector.hh"
#include "robust/protection.hh"

namespace bpsim {

/** The predictors the paper's figures sweep. */
enum class PredictorKind {
    Bimodal,
    Gshare,
    BiMode,
    Yags,           ///< tagged exception caches (Eden/Mudge)
    Gskew,          ///< 2Bc-gskew (EV8-style)
    Tournament,     ///< EV6 global/local hybrid
    Perceptron,     ///< global+local perceptron
    MultiComponent, ///< Evers multi-component hybrid
    GshareFast,     ///< the paper's pipelined predictor
};

/** Printable predictor name (matches the figures' legends). */
std::string kindName(PredictorKind kind);

/** All kinds, in a stable order. */
const std::vector<PredictorKind> &allKinds();

/** The four large predictors of Figures 5-8. */
const std::vector<PredictorKind> &largePredictorKinds();

/** Construct @p kind at (approximately) @p budget_bytes of state. */
std::unique_ptr<DirectionPredictor>
makePredictor(PredictorKind kind, std::size_t budget_bytes);

/**
 * Access latency in cycles for @p kind at @p budget_bytes under the
 * default CACTI-lite calibration and 8 FO4 clock: the largest table
 * component's access time plus the predictor's computation time
 * (one FO4 for table-combining predictors, one full optimistic cycle
 * for the perceptron's dot product — Section 4.1.5).
 */
unsigned predictorLatencyCycles(PredictorKind kind,
                                std::size_t budget_bytes,
                                const SramModel &sram = SramModel{},
                                const ClockModel &clock = ClockModel{});

/**
 * Build the FetchPredictor the timing simulator consumes.
 * GshareFast always presents as single-cycle (its pipelining hides
 * the delay); other kinds honour @p mode. Note that requesting
 * DelayMode::Pipelined for a predictor that cannot be pipelined
 * (everything except GshareFast — the paper's Section 2.2 complexity
 * sources are exactly what prevents it) is treated as the Ideal
 * zero-delay assumption: you get an upper bound, not a buildable
 * design.
 */
std::unique_ptr<FetchPredictor>
makeFetchPredictor(PredictorKind kind, std::size_t budget_bytes,
                   DelayMode mode,
                   const SramModel &sram = SramModel{},
                   const ClockModel &clock = ClockModel{});

/**
 * Protected variant of makeFetchPredictor: the slow predictor is a
 * ProtectedPredictor built at the effective budget (the quick 2K
 * front predictor, where the mode has one, stays unprotected and
 * unbombarded — the policy protects the big table), and its latency is
 * protectedPredictorLatencyCycles so the delay tax reaches the timing
 * core.
 */
std::unique_ptr<FetchPredictor>
makeProtectedFetchPredictor(PredictorKind kind,
                            std::size_t budget_bytes, DelayMode mode,
                            const robust::ProtectionConfig &prot,
                            const robust::FaultPlan &plan,
                            const SramModel &sram = SramModel{},
                            const ClockModel &clock = ClockModel{});

/**
 * Build @p kind protected by @p prot and bombarded per @p plan. The
 * protection's storage tax is charged here: the inner predictor is
 * built at protectedEffectiveBudget(@p budget_bytes, @p prot) so the
 * nominal budget pays for data plus check bits. Policy None with a
 * zero-rate plan is byte-equivalent to the bare predictor.
 */
std::unique_ptr<robust::ProtectedPredictor>
makeProtectedPredictor(PredictorKind kind, std::size_t budget_bytes,
                       const robust::ProtectionConfig &prot,
                       const robust::FaultPlan &plan);

/**
 * predictorLatencyCycles for a protected predictor: the largest
 * table is re-derived at the effective (post-tax) budget, widened by
 * its check bits (wire term), and the policy's check/correct FO4s
 * land on the read path before the cycle ceiling.
 */
unsigned protectedPredictorLatencyCycles(
    PredictorKind kind, std::size_t budget_bytes,
    const robust::ProtectionConfig &prot,
    const SramModel &sram = SramModel{},
    const ClockModel &clock = ClockModel{});

/** Entries in the single-cycle quick predictor (Section 4.1.2: a
 *  2K-entry gshare, optimistically assumed single-cycle). */
constexpr std::size_t quickPredictorEntries = 2048;

/** The paper's large-budget sweep points (Figures 2, 5, 7). */
const std::vector<std::size_t> &largeBudgetsBytes();

/** The paper's full sweep for Figure 1 (2KB .. 512KB). */
const std::vector<std::size_t> &figure1BudgetsBytes();

/** The standard budget sweep every predictor kind supports — the
 *  full 2KB .. 512KB Figure 1 range. Equivalence and property tests
 *  iterate this so each kind is exercised at every table geometry
 *  the artifacts can request. */
const std::vector<std::size_t> &standardBudgets();

} // namespace bpsim

#endif // BPSIM_CORE_FACTORY_HH

#include "core/factory.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/bitutil.hh"
#include "predictors/bimodal.hh"
#include "predictors/bimode.hh"
#include "predictors/gshare.hh"
#include "predictors/gshare_fast.hh"
#include "predictors/gskew.hh"
#include "predictors/multicomponent.hh"
#include "predictors/perceptron.hh"
#include "predictors/tournament.hh"
#include "predictors/yags.hh"

namespace bpsim {

namespace {

/** Largest power of two <= v (v >= 1). */
std::size_t
prevPow2(std::size_t v)
{
    assert(v >= 1);
    return std::size_t{1} << floorLog2(v);
}

/** Two-bit-counter entries affordable in @p budget_bytes. */
std::size_t
phtEntriesFor(std::size_t budget_bytes)
{
    return prevPow2(budget_bytes * 4);
}

struct PerceptronConfig
{
    std::size_t rows;
    unsigned globalBits;
    unsigned localBits;
    std::size_t localEntries;
};

/**
 * Global+local perceptron configuration at a budget, following the
 * TOCS paper's trend of longer histories at larger budgets.
 */
PerceptronConfig
perceptronConfigFor(std::size_t budget_bytes)
{
    PerceptronConfig cfg;
    const double kb = static_cast<double>(budget_bytes) / 1024.0;
    const int steps =
        std::max(0, static_cast<int>(std::log2(kb / 16.0) + 0.5));
    cfg.globalBits =
        std::min(24u + 4u * static_cast<unsigned>(steps), 44u);
    cfg.localBits = budget_bytes >= 8 * 1024 ? 10 : 0;
    cfg.localEntries = 2048;
    const std::size_t local_table_bytes =
        cfg.localBits ? cfg.localEntries * cfg.localBits / 8 : 0;
    const std::size_t weights_budget =
        budget_bytes > local_table_bytes
            ? budget_bytes - local_table_bytes
            : budget_bytes;
    const std::size_t row_bytes = 1 + cfg.globalBits + cfg.localBits;
    // Rows need not be a power of two, so the configuration uses the
    // whole budget (as the paper's cited configurations do).
    cfg.rows = std::max<std::size_t>(weights_budget / row_bytes, 64);
    return cfg;
}

struct MultiComponentConfig
{
    std::vector<MultiComponentPredictor::ComponentSpec> globals;
    std::size_t selectorEntries;
    std::size_t localEntries;
    std::size_t bimodalEntries;
    std::size_t largestEntries;
};

/**
 * Evers-style multi-component configuration: three global two-level
 * components with geometrically spread history lengths — the
 * longest-history one taking half the budget, as in Evers'
 * configurations where one large component dominates — plus a
 * local-history two-level component, a bimodal component, and a
 * selector table.
 */
MultiComponentConfig
multiComponentConfigFor(std::size_t budget_bytes)
{
    MultiComponentConfig cfg;
    // Largest global component: ~half the budget.
    const std::size_t big =
        prevPow2(std::max<std::size_t>(budget_bytes * 4 / 2, 512));
    const std::size_t mid = std::max<std::size_t>(big / 4, 256);
    const std::size_t small = std::max<std::size_t>(big / 8, 128);
    const unsigned n = floorLog2(big);
    cfg.globals = {
        {small, n / 3},
        {mid, 2 * n / 3},
        {big, n},
    };
    cfg.largestEntries = big;
    cfg.selectorEntries = std::max<std::size_t>(big / 8, 64);
    cfg.localEntries = std::max<std::size_t>(big / 16, 64);
    cfg.bimodalEntries = std::max<std::size_t>(big / 8, 64);
    return cfg;
}

} // namespace

std::string
kindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Bimodal:
        return "bimodal";
      case PredictorKind::Gshare:
        return "gshare";
      case PredictorKind::BiMode:
        return "bimode";
      case PredictorKind::Yags:
        return "yags";
      case PredictorKind::Gskew:
        return "2bc-gskew";
      case PredictorKind::Tournament:
        return "ev6-tournament";
      case PredictorKind::Perceptron:
        return "perceptron";
      case PredictorKind::MultiComponent:
        return "multicomponent";
      case PredictorKind::GshareFast:
        return "gshare.fast";
    }
    return "unknown";
}

const std::vector<PredictorKind> &
allKinds()
{
    static const std::vector<PredictorKind> kinds = {
        PredictorKind::Bimodal,       PredictorKind::Gshare,
        PredictorKind::BiMode,        PredictorKind::Yags,
        PredictorKind::Gskew,
        PredictorKind::Tournament,    PredictorKind::Perceptron,
        PredictorKind::MultiComponent, PredictorKind::GshareFast,
    };
    return kinds;
}

const std::vector<PredictorKind> &
largePredictorKinds()
{
    static const std::vector<PredictorKind> kinds = {
        PredictorKind::MultiComponent,
        PredictorKind::Gskew,
        PredictorKind::Perceptron,
        PredictorKind::GshareFast,
    };
    return kinds;
}

const std::vector<std::size_t> &
largeBudgetsBytes()
{
    static const std::vector<std::size_t> budgets = {
        16 * 1024,  32 * 1024,  64 * 1024,
        128 * 1024, 256 * 1024, 512 * 1024,
    };
    return budgets;
}

const std::vector<std::size_t> &
figure1BudgetsBytes()
{
    static const std::vector<std::size_t> budgets = {
        2 * 1024,   4 * 1024,   8 * 1024,  16 * 1024, 32 * 1024,
        64 * 1024,  128 * 1024, 256 * 1024, 512 * 1024,
    };
    return budgets;
}

const std::vector<std::size_t> &
standardBudgets()
{
    return figure1BudgetsBytes();
}

std::unique_ptr<DirectionPredictor>
makePredictor(PredictorKind kind, std::size_t budget_bytes)
{
    assert(budget_bytes >= 64);
    switch (kind) {
      case PredictorKind::Bimodal:
        return std::make_unique<BimodalPredictor>(
            phtEntriesFor(budget_bytes));
      case PredictorKind::Gshare:
        return std::make_unique<GsharePredictor>(
            phtEntriesFor(budget_bytes));
      case PredictorKind::BiMode: {
        // Three equal tables (two direction banks + choice).
        const std::size_t per_table =
            prevPow2(budget_bytes * 8 / (3 * 2));
        return std::make_unique<BiModePredictor>(per_table, per_table);
      }
      case PredictorKind::Yags: {
        // Half the budget in the choice PHT, half split across the
        // two tagged exception caches (2 + 8 tag + 1 valid bits per
        // entry).
        const std::size_t choice = prevPow2(budget_bytes * 8 / 2 / 2);
        const std::size_t cache =
            prevPow2(std::max<std::size_t>(
                budget_bytes * 8 / 2 / (2 * 11), 64));
        return std::make_unique<YagsPredictor>(choice, cache);
      }
      case PredictorKind::Gskew:
        // Four equal banks.
        return std::make_unique<GskewPredictor>(
            prevPow2(budget_bytes * 8 / (4 * 2)));
      case PredictorKind::Tournament: {
        // EV6 shape scaled to the budget: global and chooser tables
        // of E entries, local predictor with E/4 histories.
        const std::size_t e = prevPow2(budget_bytes * 8 / 8);
        return std::make_unique<TournamentPredictor>(
            e, std::max<std::size_t>(e / 4, 64),
            10, e);
      }
      case PredictorKind::Perceptron: {
        const PerceptronConfig c = perceptronConfigFor(budget_bytes);
        return std::make_unique<PerceptronPredictor>(
            c.rows, c.globalBits, c.localBits, c.localEntries);
      }
      case PredictorKind::MultiComponent: {
        const MultiComponentConfig c =
            multiComponentConfigFor(budget_bytes);
        return std::make_unique<MultiComponentPredictor>(
            c.globals, c.selectorEntries, c.localEntries,
            c.bimodalEntries);
      }
      case PredictorKind::GshareFast: {
        const std::size_t entries = phtEntriesFor(budget_bytes);
        // Row staleness = PHT read latency - 1 (see the pipelined
        // engine's timing derivation in src/pipeline).
        SramGeometry g;
        g.entries = entries;
        g.bitsPerEntry = 2;
        const unsigned latency =
            SramModel{}.accessCycles(g, ClockModel{});
        return std::make_unique<GshareFastPredictor>(
            entries, latency >= 1 ? latency - 1 : 0, 0);
      }
    }
    return nullptr;
}

namespace {

/** The inputs predictorLatencyCycles combines: the largest table's
 *  geometry, the combining-logic FO4s, and any whole extra cycles
 *  (the perceptron's dot product). Shared with the protected path so
 *  both charge the same table. */
struct LatencyParts
{
    SramGeometry geom;
    double combineFo4 = 0.0;
    unsigned extraCycles = 0;
};

LatencyParts
latencyPartsFor(PredictorKind kind, std::size_t budget_bytes)
{
    // One fan-out-of-four inverter of combining logic for the
    // table-based predictors (Section 4.1.5).
    const double combine_fo4 = 1.0;
    LatencyParts p;
    p.geom.bitsPerEntry = 2;
    switch (kind) {
      case PredictorKind::Bimodal:
      case PredictorKind::Gshare:
      case PredictorKind::GshareFast:
        p.geom.entries = phtEntriesFor(budget_bytes);
        break;
      case PredictorKind::BiMode:
        p.geom.entries = prevPow2(budget_bytes * 8 / (3 * 2));
        p.combineFo4 = combine_fo4;
        break;
      case PredictorKind::Yags:
        // The choice PHT is the largest structure; tag compare adds
        // the combining FO4.
        p.geom.entries = prevPow2(budget_bytes * 8 / 2 / 2);
        p.combineFo4 = combine_fo4;
        break;
      case PredictorKind::Gskew:
        // Majority + meta selection adds the combining FO4.
        p.geom.entries = prevPow2(budget_bytes * 8 / (4 * 2));
        p.combineFo4 = combine_fo4;
        break;
      case PredictorKind::Tournament:
        p.geom.entries = prevPow2(budget_bytes * 8 / 8);
        p.combineFo4 = combine_fo4;
        break;
      case PredictorKind::MultiComponent:
        p.geom.entries =
            multiComponentConfigFor(budget_bytes).largestEntries;
        p.combineFo4 = combine_fo4;
        break;
      case PredictorKind::Perceptron: {
        const PerceptronConfig c = perceptronConfigFor(budget_bytes);
        p.geom.entries = c.rows;
        p.geom.bitsPerEntry = (1 + c.globalBits + c.localBits) * 8;
        // Table read plus one (optimistic) cycle for the dot
        // product (Section 4.1.2).
        p.extraCycles = 1;
        break;
      }
    }
    return p;
}

} // namespace

unsigned
predictorLatencyCycles(PredictorKind kind, std::size_t budget_bytes,
                       const SramModel &sram, const ClockModel &clock)
{
    const LatencyParts p = latencyPartsFor(kind, budget_bytes);
    return clock.cyclesForFo4(sram.accessFo4(p.geom) + p.combineFo4) +
           p.extraCycles;
}

std::unique_ptr<robust::ProtectedPredictor>
makeProtectedPredictor(PredictorKind kind, std::size_t budget_bytes,
                       const robust::ProtectionConfig &prot,
                       const robust::FaultPlan &plan)
{
    auto inner = makePredictor(
        kind, robust::protectedEffectiveBudget(budget_bytes, prot));
    return std::make_unique<robust::ProtectedPredictor>(
        std::move(inner), plan, prot);
}

unsigned
protectedPredictorLatencyCycles(PredictorKind kind,
                                std::size_t budget_bytes,
                                const robust::ProtectionConfig &prot,
                                const SramModel &sram,
                                const ClockModel &clock)
{
    LatencyParts p = latencyPartsFor(
        kind, robust::protectedEffectiveBudget(budget_bytes, prot));
    p.geom.checkBits = robust::protectionCheckBitsTotal(
        p.geom.entries * p.geom.bitsPerEntry, prot);
    return clock.cyclesForFo4(sram.accessFo4(p.geom) + p.combineFo4 +
                              robust::protectionCheckFo4(prot)) +
           p.extraCycles;
}

namespace {

/** Mode rule shared by the bare and protected fetch factories:
 *  put @p pred behind @p mode at @p latency cycles. */
std::unique_ptr<FetchPredictor>
wrapFetchPredictor(std::unique_ptr<DirectionPredictor> pred,
                   PredictorKind kind, DelayMode mode,
                   unsigned latency)
{
    // gshare.fast is pipelined: single-cycle at any budget.
    if (kind == PredictorKind::GshareFast || mode == DelayMode::Ideal ||
        mode == DelayMode::Pipelined || latency <= 1)
        return std::make_unique<FetchPredictor>(DelayMode::Ideal,
                                                std::move(pred));
    // Overriding and cascading put the paper's 2K-entry single-cycle
    // gshare in front.
    std::unique_ptr<DirectionPredictor> quick;
    if (mode == DelayMode::Overriding || mode == DelayMode::Cascading)
        quick = std::make_unique<GsharePredictor>(quickPredictorEntries);
    return std::make_unique<FetchPredictor>(mode, std::move(pred), latency,
                                            std::move(quick));
}

} // namespace

std::unique_ptr<FetchPredictor>
makeFetchPredictor(PredictorKind kind, std::size_t budget_bytes,
                   DelayMode mode, const SramModel &sram,
                   const ClockModel &clock)
{
    auto pred = makePredictor(kind, budget_bytes);
    assert(pred);
    const unsigned latency =
        predictorLatencyCycles(kind, budget_bytes, sram, clock);
    return wrapFetchPredictor(std::move(pred), kind, mode, latency);
}

std::unique_ptr<FetchPredictor>
makeProtectedFetchPredictor(PredictorKind kind,
                            std::size_t budget_bytes, DelayMode mode,
                            const robust::ProtectionConfig &prot,
                            const robust::FaultPlan &plan,
                            const SramModel &sram,
                            const ClockModel &clock)
{
    auto pred =
        makeProtectedPredictor(kind, budget_bytes, prot, plan);
    const unsigned latency = protectedPredictorLatencyCycles(
        kind, budget_bytes, prot, sram, clock);
    return wrapFetchPredictor(std::move(pred), kind, mode, latency);
}

} // namespace bpsim

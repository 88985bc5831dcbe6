/**
 * @file
 * Tests for SRAM fault injection (src/robust): the visitState()
 * coverage invariant, deterministic bit flipping, graceful accuracy
 * degradation, and trace corruption.
 */

#include "robust/fault_injector.hh"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "predictors/static_pred.hh"
#include "robust/trace_fault.hh"
#include "sim/btb.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

/** Tallies fields without mutating anything. */
class CountingVisitor : public robust::StateVisitor
{
  public:
    void
    visit(const robust::StateField &field) override
    {
        totalBits_ += field.totalBits();
        ++fields_;
        // Exercise the accessors on the first element so a broken
        // load/store pair fails here, not only under bombardment.
        if (field.count > 0) {
            const std::uint64_t v = field.load(0);
            field.store(0, v);
            EXPECT_EQ(field.load(0), v) << field.name;
        }
    }

    std::size_t totalBits() const { return totalBits_; }
    std::size_t fields() const { return fields_; }

  private:
    std::size_t totalBits_ = 0;
    std::size_t fields_ = 0;
};

TEST(StateVisitor, ExposedBitsMatchStorageBits)
{
    // The fault model must cover exactly the hardware budget the
    // paper charges — no hidden state, no double counting.
    for (PredictorKind kind : allKinds()) {
        auto pred = makePredictor(kind, 64 * 1024);
        CountingVisitor counter;
        pred->visitState(counter);
        EXPECT_EQ(counter.totalBits(), pred->storageBits())
            << kindName(kind);
        EXPECT_GT(counter.fields(), 0u) << kindName(kind);
    }
}

TEST(StateVisitor, FetchWrappersForwardToComponents)
{
    for (auto mode : {DelayMode::Ideal, DelayMode::Overriding,
                      DelayMode::Pipelined}) {
        auto fp = makeFetchPredictor(PredictorKind::Perceptron,
                                     64 * 1024, mode);
        CountingVisitor counter;
        fp->visitState(counter);
        // Overriding wraps quick + slow, so it exposes at least the
        // slow predictor's fields; the others exactly one predictor.
        EXPECT_GT(counter.fields(), 0u) << delayModeName(mode);
        EXPECT_GT(counter.totalBits(), 0u) << delayModeName(mode);
    }
}

TEST(StateVisitor, WeightFieldSignExtendsRoundTrip)
{
    std::vector<SignedWeight> weights(3, SignedWeight(8));
    weights[0].set(-128);
    weights[1].set(-1);
    weights[2].set(127);
    const robust::StateField f =
        robust::weightField("w", weights, 8);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const std::int16_t before = weights[i].value();
        f.store(i, f.load(i));
        EXPECT_EQ(weights[i].value(), before) << "weight " << i;
    }
    // Flipping the sign bit of -1 (0xff) gives 0x7f == +127.
    f.store(1, f.load(1) ^ 0x80);
    EXPECT_EQ(weights[1].value(), 127);
}

TEST(FaultInjector, RateZeroIsTransparent)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 60000, 3);

    auto clean = makePredictor(PredictorKind::Gshare, 64 * 1024);
    const AccuracyResult base = runAccuracy(*clean, trace);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 0.0;
    robust::FaultInjectingPredictor faulty(
        makePredictor(PredictorKind::Gshare, 64 * 1024), plan);
    const AccuracyResult r = runAccuracy(faulty, trace);

    EXPECT_EQ(r.branches, base.branches);
    EXPECT_EQ(r.mispredictions, base.mispredictions);
    EXPECT_EQ(faulty.injector().flips(), 0u);
    EXPECT_GT(faulty.injector().events(), 0u);
}

TEST(FaultInjector, SameSeedSameFlipsAndPredictions)
{
    const auto w = makeWorkload("186.crafty");
    const TraceBuffer trace = generateTrace(*w, 60000, 5);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-3;
    plan.intervalBranches = 512;
    plan.seed = 1234;

    AccuracyResult runs[2];
    Counter flips[2];
    for (int i = 0; i < 2; ++i) {
        robust::FaultInjectingPredictor pred(
            makePredictor(PredictorKind::Perceptron, 64 * 1024),
            plan);
        runs[i] = runAccuracy(pred, trace);
        flips[i] = pred.injector().flips();
    }
    EXPECT_EQ(runs[0].mispredictions, runs[1].mispredictions);
    EXPECT_EQ(flips[0], flips[1]);
    EXPECT_GT(flips[0], 0u);
}

TEST(FaultInjector, HighRateDegradesButNeverBreaks)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 60000, 3);

    auto clean = makePredictor(PredictorKind::Gshare, 64 * 1024);
    const AccuracyResult base = runAccuracy(*clean, trace);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2; // thousands of flips per event
    plan.intervalBranches = 512;
    robust::FaultInjectingPredictor faulty(
        makePredictor(PredictorKind::Gshare, 64 * 1024), plan);
    const AccuracyResult r = runAccuracy(faulty, trace);

    // Same branch stream, worse accuracy, no crash: predictor state
    // is architecturally invisible, so bombardment only costs
    // mispredictions.
    EXPECT_EQ(r.branches, base.branches);
    EXPECT_GT(r.mispredictions, base.mispredictions);
    EXPECT_GT(faulty.injector().flips(), 1000u);
}

TEST(FaultInjector, TargetPrefixRestrictsFields)
{
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2;
    plan.targetPrefix = "pred.gshare.pht";
    robust::FaultInjector injector(plan);

    auto pred = makePredictor(PredictorKind::Gshare, 64 * 1024);
    injector.inject(*pred);

    EXPECT_GT(injector.flips(), 0u);
    for (const auto &[name, n] : injector.flipsByField()) {
        EXPECT_EQ(name.rfind("pred.gshare.pht", 0), 0u) << name;
        EXPECT_GT(n, 0u);
    }
}

TEST(FaultPlan, MatchesCombinesPrefixesAndExactNames)
{
    robust::FaultPlan plan;
    // No targeting at all: everything matches.
    EXPECT_TRUE(plan.matches("pred.gshare.pht"));
    EXPECT_TRUE(plan.matches(""));

    plan.targetPrefix = "pred.gshare.";
    EXPECT_TRUE(plan.matches("pred.gshare.pht"));
    EXPECT_FALSE(plan.matches("pred.perceptron.weights"));

    // Multiple prefixes OR together, and with the legacy single one.
    plan.targetPrefixes = {"pred.2bc-gskew.g0", "pred.2bc-gskew.g1"};
    EXPECT_TRUE(plan.matches("pred.gshare.history"));
    EXPECT_TRUE(plan.matches("pred.2bc-gskew.g0"));
    EXPECT_TRUE(plan.matches("pred.2bc-gskew.g1"));
    EXPECT_FALSE(plan.matches("pred.2bc-gskew.meta"));

    // Exact names are exact: no prefix semantics.
    plan.targetPrefix.clear();
    plan.targetPrefixes.clear();
    plan.targetFields = {"pred.perceptron.global_history"};
    EXPECT_TRUE(plan.matches("pred.perceptron.global_history"));
    EXPECT_FALSE(plan.matches("pred.perceptron.global_histories"));
    EXPECT_FALSE(plan.matches("pred.perceptron"));
}

TEST(FaultInjector, ExactFieldTargetingHitsOnlyThatField)
{
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2;
    plan.targetFields = {"pred.gshare.history"};
    robust::FaultInjector injector(plan);

    auto pred = makePredictor(PredictorKind::Gshare, 64 * 1024);
    // The history register is tiny; fire enough events for the
    // Poisson sampler to land at least one flip in it.
    for (int i = 0; i < 200; ++i)
        injector.inject(*pred);
    EXPECT_GT(injector.flips(), 0u);
    ASSERT_EQ(injector.flipsByField().size(), 1u);
    EXPECT_EQ(injector.flipsByField().begin()->first,
              "pred.gshare.history");
}

TEST(FaultInjector, MultiPrefixTargetingCoversListedBanksOnly)
{
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2;
    plan.targetPrefixes = {"pred.2bc-gskew.g0", "pred.2bc-gskew.g1"};
    robust::FaultInjector injector(plan);

    auto pred = makePredictor(PredictorKind::Gskew, 64 * 1024);
    injector.inject(*pred);

    EXPECT_GT(injector.flips(), 0u);
    EXPECT_GE(injector.flipsByField().size(), 2u);
    for (const auto &[name, n] : injector.flipsByField()) {
        EXPECT_TRUE(name.rfind("pred.2bc-gskew.g0", 0) == 0 ||
                    name.rfind("pred.2bc-gskew.g1", 0) == 0)
            << name;
        EXPECT_GT(n, 0u);
    }
}

TEST(FaultInjector, EventMatchingNoFieldThrows)
{
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2;
    plan.targetPrefix = "pred.gshrae.";
    plan.targetFields = {"pred.gshare.pth"};
    robust::FaultInjectingPredictor pred(
        makePredictor(PredictorKind::Gshare, 16 * 1024), plan);
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 20000, 3);
    try {
        runAccuracy(pred, trace);
        FAIL() << "a plan that matches no field must not run";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("pred.gshrae.*"), std::string::npos) << what;
        EXPECT_NE(what.find("pred.gshare.pth"), std::string::npos)
            << what;
    }

    // A predictor with no state fails the same way, even under an
    // untargeted plan.
    StaticPredictor stateless(true);
    robust::FaultInjector injector(robust::FaultPlan{});
    EXPECT_THROW(injector.inject(stateless), std::invalid_argument);
}

TEST(FaultInjector, BombardsTheBtb)
{
    Btb btb(512, 2);
    for (Addr pc = 0; pc < 512 * 16; pc += 16)
        btb.update(pc, pc + 64);

    CountingVisitor counter;
    btb.visitState(counter);
    // 512 entries x (48 tag + 48 target + 1 valid) bits.
    EXPECT_EQ(counter.totalBits(), 512u * 97u);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 0.05;
    robust::FaultInjector injector(plan);
    injector.inject(btb);
    EXPECT_GT(injector.flips(), 0u);

    // A flipped valid/tag bit shows up as misses or wrong targets —
    // the misprediction machinery's problem, never a crash.
    std::size_t changed = 0;
    for (Addr pc = 0; pc < 512 * 16; pc += 16) {
        const auto t = btb.lookup(pc);
        if (!t || *t != pc + 64)
            ++changed;
    }
    EXPECT_GT(changed, 0u);
}

TEST(TraceFault, CorruptTraceIsDeterministicAndKeepsClasses)
{
    const auto w = makeWorkload("254.gap");
    TraceBuffer a = generateTrace(*w, 30000, 9);
    TraceBuffer b = generateTrace(*w, 30000, 9);
    const TraceBuffer original = generateTrace(*w, 30000, 9);

    Rng rngA(77), rngB(77);
    const auto statsA = robust::corruptTrace(a, 0.01, rngA);
    const auto statsB = robust::corruptTrace(b, 0.01, rngB);

    EXPECT_GT(statsA.recordsHit, 0u);
    EXPECT_EQ(statsA.recordsHit, statsB.recordsHit);
    EXPECT_EQ(statsA.total(), statsB.total());

    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cls, original[i].cls) << "op " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "op " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "op " << i;
        if (a[i].pc != original[i].pc ||
            a[i].taken != original[i].taken ||
            a[i].extra != original[i].extra)
            ++diffs;
    }
    EXPECT_GT(diffs, 0u);

    // The corrupted trace still drives a full accuracy run.
    auto pred = makePredictor(PredictorKind::Gshare, 16 * 1024);
    const AccuracyResult r = runAccuracy(*pred, a);
    EXPECT_GT(r.branches, 0u);
}

TEST(TraceFault, IoFaultInjectorIsDeterministicAndCapped)
{
    robust::IoFaultInjector a(0.5, 42, 3);
    robust::IoFaultInjector b(0.5, 42, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.shouldFail(), b.shouldFail()) << "call " << i;
    EXPECT_EQ(a.failures(), 3u);
    EXPECT_EQ(a.calls(), 100u);
}

} // namespace
} // namespace bpsim

/**
 * @file
 * Tests for the protection-policy layer (src/robust/protection):
 * check-bit math and the taxes it implies, word-level repair
 * semantics (parity invalidation, SEC-DED correction, laundering),
 * the ProtectedPredictor decorator, and the factory's protected
 * build/latency paths.
 */

#include "robust/protection.hh"

#include <gtest/gtest.h>

#include <vector>

#include "core/factory.hh"
#include "core/runner.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

using robust::ProtectionConfig;
using robust::ProtectionLayer;
using robust::ProtectionPolicy;

ProtectionConfig
config(ProtectionPolicy policy, unsigned word_bits = 64)
{
    ProtectionConfig cfg;
    cfg.policy = policy;
    cfg.wordBits = word_bits;
    return cfg;
}

TEST(ProtectionMath, SecdedCheckBitsMatchHamming)
{
    // Hamming r with 2^r >= W + r + 1, plus the DED parity bit.
    EXPECT_EQ(robust::secdedCheckBits(8), 5u);
    EXPECT_EQ(robust::secdedCheckBits(16), 6u);
    EXPECT_EQ(robust::secdedCheckBits(32), 7u);
    EXPECT_EQ(robust::secdedCheckBits(64), 8u);
    EXPECT_EQ(robust::secdedCheckBits(128), 9u);
}

TEST(ProtectionMath, CheckBitsPerPolicy)
{
    EXPECT_EQ(robust::protectionCheckBits(
                  config(ProtectionPolicy::None)),
              0u);
    EXPECT_EQ(robust::protectionCheckBits(
                  config(ProtectionPolicy::ParityInvalidate)),
              1u);
    EXPECT_EQ(robust::protectionCheckBits(
                  config(ProtectionPolicy::SecdedCorrect)),
              8u);
    // Scrubbing stores the same code words; only the check timing
    // differs.
    EXPECT_EQ(robust::protectionCheckBits(
                  config(ProtectionPolicy::Scrub)),
              8u);
}

TEST(ProtectionMath, EffectiveBudgetPaysTheStorageTax)
{
    const std::size_t budget = 64 * 1024;
    EXPECT_EQ(robust::protectedEffectiveBudget(
                  budget, config(ProtectionPolicy::None)),
              budget);
    // SEC-DED at W=64: 8 check bits per 64 data bits = 12.5%.
    EXPECT_EQ(robust::protectedEffectiveBudget(
                  budget, config(ProtectionPolicy::SecdedCorrect)),
              budget * 64 / 72);
    // Parity: 1 bit per 64.
    EXPECT_EQ(robust::protectedEffectiveBudget(
                  budget, config(ProtectionPolicy::ParityInvalidate)),
              budget * 64 / 65);
    // Never collapses to nothing.
    EXPECT_GE(robust::protectedEffectiveBudget(
                  1, config(ProtectionPolicy::SecdedCorrect)),
              64u);
}

TEST(ProtectionMath, CheckBitsTotalCoversEveryWord)
{
    const auto cfg = config(ProtectionPolicy::SecdedCorrect);
    EXPECT_EQ(robust::protectionCheckBitsTotal(0, cfg), 0u);
    EXPECT_EQ(robust::protectionCheckBitsTotal(64, cfg), 8u);
    // Partial trailing word still needs a full set of check bits.
    EXPECT_EQ(robust::protectionCheckBitsTotal(65, cfg), 16u);
    EXPECT_EQ(robust::protectionCheckBitsTotal(
                  100, config(ProtectionPolicy::None)),
              0u);
}

TEST(ProtectionMath, OnlyAccessPathPoliciesAddFo4)
{
    EXPECT_EQ(robust::protectionCheckFo4(
                  config(ProtectionPolicy::None)),
              0.0);
    EXPECT_EQ(
        robust::protectionCheckFo4(config(ProtectionPolicy::Scrub)),
        0.0);
    const double parity = robust::protectionCheckFo4(
        config(ProtectionPolicy::ParityInvalidate));
    const double secded = robust::protectionCheckFo4(
        config(ProtectionPolicy::SecdedCorrect));
    EXPECT_GT(parity, 0.0);
    EXPECT_GT(secded, parity);
}

/** Fixture driving exact flip patterns through a layer over a small
 *  wordArrayField: 8-bit elements, 16-bit ECC words => two elements
 *  per word ({0,1} and {2,3}). */
struct LayerTest
{
    explicit LayerTest(ProtectionPolicy policy)
        : layer(config(policy, 16)),
          field(robust::wordArrayField("t.field", values, 8))
    {
    }

    /** Inject one flip the way the FaultInjector would: record it,
     *  then apply it to the storage. */
    void
    flip(std::size_t elem, unsigned bit)
    {
        flipIn(0, field, elem, bit);
    }

    /** As flip(), in @p f at walk ordinal @p ordinal. */
    void
    flipIn(std::size_t ordinal, const robust::StateField &f,
           std::size_t elem, unsigned bit)
    {
        const std::uint64_t before = f.load(elem);
        layer.recordFlip(ordinal, f, elem, bit, before);
        f.store(elem, before ^ (std::uint64_t{1} << bit));
    }

    std::vector<std::uint64_t> values{0x55, 0x55, 0x55, 0x55};
    ProtectionLayer layer;
    robust::StateField field;
};

TEST(ProtectionLayer, ParityInvalidatesOddCorruption)
{
    LayerTest t(ProtectionPolicy::ParityInvalidate);
    t.flip(0, 1);
    EXPECT_EQ(t.layer.pendingWords(), 1u);
    t.layer.repair();
    // Parity can only detect-and-reset: both elements of the word go
    // to the field's reset value, the untouched word stays put.
    EXPECT_EQ(t.values[0], t.field.resetValue);
    EXPECT_EQ(t.values[1], t.field.resetValue);
    EXPECT_EQ(t.values[2], 0x55u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedElements, 2u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, ParityMissesEvenCorruption)
{
    LayerTest t(ProtectionPolicy::ParityInvalidate);
    t.flip(0, 1);
    t.flip(1, 2); // same 16-bit word, so the word has 2 flipped bits
    t.layer.repair();
    EXPECT_EQ(t.values[0], 0x55u ^ 0x02u);
    EXPECT_EQ(t.values[1], 0x55u ^ 0x04u);
    EXPECT_EQ(t.layer.stats().undetectedWords, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 0u);
    // The ledger keeps the word: one MORE flip makes parity odd.
    EXPECT_EQ(t.layer.pendingWords(), 1u);
    t.flip(0, 3);
    t.layer.repair();
    EXPECT_EQ(t.values[0], t.field.resetValue);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 1u);
}

TEST(ProtectionLayer, SecdedCorrectsSingleBit)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    t.flip(2, 6);
    EXPECT_NE(t.values[2], 0x55u);
    t.layer.repair();
    EXPECT_EQ(t.values[2], 0x55u); // restored, not reset
    EXPECT_EQ(t.layer.stats().correctedBits, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 0u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, SecdedInvalidatesDoubleAndMissesTriple)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    t.flip(0, 1);
    t.flip(1, 2);
    t.layer.repair();
    EXPECT_EQ(t.values[0], t.field.resetValue);
    EXPECT_EQ(t.values[1], t.field.resetValue);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 1u);

    t.flip(2, 0);
    t.flip(2, 1);
    t.flip(3, 2);
    t.layer.repair();
    // Three flips in one word alias past SEC-DED: values keep the
    // corruption.
    EXPECT_EQ(t.values[2], 0x55u ^ 0x03u);
    EXPECT_EQ(t.values[3], 0x55u ^ 0x04u);
    EXPECT_EQ(t.layer.stats().undetectedWords, 1u);
}

TEST(ProtectionLayer, OverwrittenElementsAreLaundered)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    t.flip(0, 1);
    // The predictor trains over the flipped element before the check
    // runs: the write re-encoded the word, so there is nothing left
    // to repair.
    t.field.store(0, 0x33);
    t.layer.repair();
    EXPECT_EQ(t.values[0], 0x33u);
    EXPECT_EQ(t.layer.stats().launderedElements, 1u);
    EXPECT_EQ(t.layer.stats().correctedBits, 0u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, CarriedParityWordCaughtByAThirdFlip)
{
    LayerTest t(ProtectionPolicy::ParityInvalidate);
    t.flip(0, 1);
    t.flip(0, 2);
    t.layer.repair();
    EXPECT_EQ(t.layer.stats().undetectedWords, 1u);
    ASSERT_EQ(t.layer.pendingWords(), 1u);
    // The third flip lands in the carried word's other element: the
    // word now holds three flipped bits, so parity fires.
    t.flip(1, 7);
    t.layer.repair();
    EXPECT_EQ(t.values[0], t.field.resetValue);
    EXPECT_EQ(t.values[1], t.field.resetValue);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedElements, 2u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, FlipAfterAWriteIsCheckedAgainstTheWrittenValue)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    // The same bit twice cancels out...
    t.flip(2, 3);
    t.flip(2, 3);
    EXPECT_EQ(t.values[2], 0x55u);
    // ...the predictor then writes the element, and a third flip
    // lands on the new value before the check.
    t.field.store(2, 0x21);
    t.flip(2, 0);
    t.layer.repair();
    // Corrected back to the value before the third flip, not to the
    // value before the first.
    EXPECT_EQ(t.values[2], 0x21u);
    EXPECT_EQ(t.layer.stats().correctedBits, 1u);
    EXPECT_EQ(t.layer.stats().launderedElements, 0u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, CarriedWordIsLaunderedByAWrite)
{
    LayerTest t(ProtectionPolicy::ParityInvalidate);
    t.flip(0, 1);
    t.flip(0, 2);
    t.layer.repair();
    ASSERT_EQ(t.layer.pendingWords(), 1u);
    // The predictor overwrites the corrupted element between checks.
    t.field.store(0, 0x10);
    t.layer.repair();
    EXPECT_EQ(t.values[0], 0x10u);
    EXPECT_EQ(t.values[1], 0x55u);
    EXPECT_EQ(t.layer.stats().launderedElements, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 0u);
    EXPECT_EQ(t.layer.stats().undetectedWords, 1u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, SameNamedFieldsAreRepairedInTheirOwnStorage)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    std::vector<std::uint64_t> other{0x55, 0x55, 0x55, 0x55};
    const robust::StateField twin =
        robust::wordArrayField(t.field.name, other, 8);
    // One flip in word 0 of each field: two single-bit words, not
    // one double-bit word.
    t.flipIn(0, t.field, 0, 1);
    t.flipIn(1, twin, 1, 2);
    EXPECT_EQ(t.layer.pendingWords(), 2u);
    t.layer.repair();
    EXPECT_EQ(t.values[0], 0x55u);
    EXPECT_EQ(other[1], 0x55u);
    EXPECT_EQ(t.layer.stats().correctedBits, 2u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 0u);
}

TEST(ProtectedPredictor, RateZeroIsTransparent)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 60000, 3);

    auto clean = makePredictor(PredictorKind::Gshare, 64 * 1024);
    const AccuracyResult base = runAccuracy(*clean, trace);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 0.0;
    // Build the inner at the FULL budget (not via the factory's
    // protected path) so accuracy is comparable bit for bit.
    robust::ProtectedPredictor pred(
        makePredictor(PredictorKind::Gshare, 64 * 1024), plan,
        config(ProtectionPolicy::SecdedCorrect));
    const AccuracyResult r = runAccuracy(pred, trace);

    EXPECT_EQ(r.mispredictions, base.mispredictions);
    EXPECT_EQ(pred.protectionStats().injectedFlips, 0u);
    EXPECT_EQ(pred.protectionStats().correctedBits, 0u);
}

TEST(ProtectedPredictor, SecdedRepairsAndIsDeterministic)
{
    const auto w = makeWorkload("186.crafty");
    const TraceBuffer trace = generateTrace(*w, 60000, 5);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-3;
    plan.intervalBranches = 256;
    plan.seed = 99;

    AccuracyResult runs[2];
    robust::ProtectionStats stats[2];
    for (int i = 0; i < 2; ++i) {
        auto pred = makeProtectedPredictor(
            PredictorKind::Gshare, 64 * 1024,
            config(ProtectionPolicy::SecdedCorrect), plan);
        runs[i] = runAccuracy(*pred, trace);
        stats[i] = pred->protectionStats();
    }
    EXPECT_EQ(runs[0].mispredictions, runs[1].mispredictions);
    EXPECT_EQ(stats[0].injectedFlips, stats[1].injectedFlips);
    EXPECT_EQ(stats[0].correctedBits, stats[1].correctedBits);
    EXPECT_GT(stats[0].injectedFlips, 0u);
    // Checks run right after every injection event, so single-bit
    // words dominate and most flips get corrected.
    EXPECT_GT(stats[0].correctedBits, 0u);
    EXPECT_GT(stats[0].repairEvents, 0u);
    EXPECT_EQ(stats[0].scrubEvents, 0u);
}

TEST(ProtectedPredictor, ScrubRunsAtItsOwnCadence)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 60000, 3);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-3;
    plan.intervalBranches = 256;
    plan.seed = 7;
    ProtectionConfig cfg = config(ProtectionPolicy::Scrub);
    cfg.scrubIntervalBranches = 2048;

    auto pred = makeProtectedPredictor(PredictorKind::Gshare,
                                       64 * 1024, cfg, plan);
    runAccuracy(*pred, trace);
    const robust::ProtectionStats &s = pred->protectionStats();
    // One update per conditional branch, one scrub pass per full
    // interval; every repair pass is a scrub pass (scrubbing never
    // checks on access).
    EXPECT_GT(trace.condBranches(), 2048u);
    EXPECT_EQ(s.scrubEvents, trace.condBranches() / 2048);
    EXPECT_EQ(s.repairEvents, s.scrubEvents);
    EXPECT_GT(s.injectedFlips, 0u);
}

TEST(ProtectedPredictor, ExposedBitsStillMatchStorageBits)
{
    robust::FaultPlan plan;
    auto pred = makeProtectedPredictor(
        PredictorKind::Perceptron, 64 * 1024,
        config(ProtectionPolicy::SecdedCorrect), plan);

    std::size_t total = 0;
    class Counting : public robust::StateVisitor
    {
      public:
        explicit Counting(std::size_t &total) : total_(total) {}
        void
        visit(const robust::StateField &f) override
        {
            total_ += f.totalBits();
        }

      private:
        std::size_t &total_;
    } counter(total);
    pred->visitState(counter);
    EXPECT_EQ(total, pred->storageBits());
    // The check bits are the tax on top, not addressable state.
    EXPECT_GT(pred->protectionBitsTotal(), 0u);
    // The effective budget shrank to make room for them.
    EXPECT_LT(pred->storageBits(), 64u * 1024u * 8u);
}

TEST(ProtectedFactory, NonePolicyMatchesPlainLatency)
{
    for (PredictorKind kind :
         {PredictorKind::Gshare, PredictorKind::Perceptron,
          PredictorKind::MultiComponent}) {
        for (std::size_t budget : {16u * 1024u, 64u * 1024u}) {
            EXPECT_EQ(protectedPredictorLatencyCycles(
                          kind, budget,
                          config(ProtectionPolicy::None)),
                      predictorLatencyCycles(kind, budget))
                << kindName(kind) << " @ " << budget;
        }
    }
}

TEST(ProtectedFactory, LatencyReflectsBothTaxes)
{
    // The delay tax has two opposing parts: check logic adds FO4s,
    // but the shrunken effective table loses decode/wire FO4s. Both
    // must flow through; the net can go either way, so pin the
    // inputs instead of the sign — the protected geometry carries
    // check bits and the protected latency is within one cycle of
    // an explicitly-built equivalent.
    const std::size_t budget = 256 * 1024;
    const auto cfg = config(ProtectionPolicy::SecdedCorrect);
    const unsigned plain =
        predictorLatencyCycles(PredictorKind::Gshare, budget);
    const unsigned prot = protectedPredictorLatencyCycles(
        PredictorKind::Gshare, budget, cfg);
    const unsigned eff_plain = predictorLatencyCycles(
        PredictorKind::Gshare,
        robust::protectedEffectiveBudget(budget, cfg));
    // Protected latency is bounded by the two unprotected anchors:
    // at least the smaller table's bare latency, at most the full
    // table's latency plus the check logic (rounded up a cycle).
    EXPECT_GE(prot, eff_plain);
    EXPECT_LE(prot, plain + 1);
}

TEST(ProtectedFactory, FetchPredictorRunsUnderTiming)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 30000, 3);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-3;
    plan.intervalBranches = 256;
    plan.seed = 11;

    CoreConfig cfg;
    auto fp = makeProtectedFetchPredictor(
        PredictorKind::Gshare, 64 * 1024, DelayMode::Overriding,
        config(ProtectionPolicy::SecdedCorrect), plan);
    const SimResult r = runTiming(cfg, *fp, trace);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
}

} // namespace
} // namespace bpsim

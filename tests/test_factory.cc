/** @file Tests for the predictor factory and delay assignments. */

#include "core/factory.hh"

#include <gtest/gtest.h>

#include <set>

namespace bpsim {
namespace {

class FactoryKindTest : public ::testing::TestWithParam<PredictorKind>
{
};

TEST_P(FactoryKindTest, ConstructsAtEveryPaperBudget)
{
    for (std::size_t budget : figure1BudgetsBytes()) {
        auto p = makePredictor(GetParam(), budget);
        ASSERT_NE(p, nullptr);
        EXPECT_GT(p->storageBits(), 0u);
    }
}

TEST_P(FactoryKindTest, StorageTracksBudget)
{
    for (std::size_t budget : largeBudgetsBytes()) {
        auto p = makePredictor(GetParam(), budget);
        // Power-of-two rounding and per-structure overheads allow
        // slack, but the configuration must be in the budget's
        // ballpark: within a factor of four below, never more than
        // ~1.5x above.
        EXPECT_GE(p->storageBytes(), budget / 4)
            << kindName(GetParam()) << " @ " << budget;
        EXPECT_LE(p->storageBytes(), budget + budget / 2)
            << kindName(GetParam()) << " @ " << budget;
    }
}

TEST_P(FactoryKindTest, StorageGrowsWithBudget)
{
    std::size_t prev = 0;
    for (std::size_t budget : largeBudgetsBytes()) {
        auto p = makePredictor(GetParam(), budget);
        EXPECT_GT(p->storageBits(), prev);
        prev = p->storageBits();
    }
}

TEST_P(FactoryKindTest, LatencyMonotoneInBudget)
{
    unsigned prev = 0;
    for (std::size_t budget : largeBudgetsBytes()) {
        const unsigned l = predictorLatencyCycles(GetParam(), budget);
        EXPECT_GE(l, prev) << kindName(GetParam());
        EXPECT_GE(l, 1u);
        prev = l;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FactoryKindTest, ::testing::ValuesIn(allKinds()),
    [](const auto &info) {
        std::string n = kindName(info.param);
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(Factory, KindNamesAreUnique)
{
    std::set<std::string> names;
    for (auto k : allKinds())
        EXPECT_TRUE(names.insert(kindName(k)).second);
}

TEST(Factory, LargePredictorListMatchesFigure5)
{
    const auto &kinds = largePredictorKinds();
    ASSERT_EQ(kinds.size(), 4u);
    EXPECT_EQ(kinds[0], PredictorKind::MultiComponent);
    EXPECT_EQ(kinds[1], PredictorKind::Gskew);
    EXPECT_EQ(kinds[2], PredictorKind::Perceptron);
    EXPECT_EQ(kinds[3], PredictorKind::GshareFast);
}

TEST(Factory, PaperDelayAnchors)
{
    // Section 4.1.2: gshare-family at 512 KB is an 11-cycle access;
    // the perceptron adds a compute cycle on top of its table read;
    // everything at small budgets is a handful of cycles.
    EXPECT_EQ(predictorLatencyCycles(PredictorKind::Gshare, 512 * 1024),
              11u);
    EXPECT_GE(
        predictorLatencyCycles(PredictorKind::Perceptron, 512 * 1024),
        8u);
    EXPECT_LE(predictorLatencyCycles(PredictorKind::Gskew, 16 * 1024),
              2u);
}

TEST(Factory, GshareFastAlwaysPresentsSingleCycle)
{
    for (std::size_t budget : largeBudgetsBytes()) {
        for (auto mode : {DelayMode::Ideal, DelayMode::Overriding,
                          DelayMode::Stall, DelayMode::Pipelined}) {
            auto fp = makeFetchPredictor(PredictorKind::GshareFast,
                                         budget, mode);
            const auto r = fp->predict(0x4000);
            EXPECT_EQ(r.bubbleCycles, 0u)
                << "gshare.fast is pipelined: no bubbles ever";
            fp->update(0x4000, true);
        }
    }
}

TEST(Factory, OverridingWrapsComplexPredictors)
{
    auto fp = makeFetchPredictor(PredictorKind::Perceptron, 256 * 1024,
                                 DelayMode::Overriding);
    ASSERT_EQ(fp->mode(), DelayMode::Overriding);
    EXPECT_EQ(fp->slowLatency(),
              predictorLatencyCycles(PredictorKind::Perceptron,
                                     256 * 1024));
    // The quick predictor is the paper's 2K-entry gshare.
    EXPECT_EQ(fp->quick().storageBits(),
              quickPredictorEntries * 2 + 11);
}

TEST(Factory, IdealModeIsSingleCycle)
{
    auto fp = makeFetchPredictor(PredictorKind::MultiComponent,
                                 512 * 1024, DelayMode::Ideal);
    EXPECT_EQ(fp->predict(0x40).bubbleCycles, 0u);
}

TEST(Factory, StallModeBubblesEveryBranch)
{
    auto fp = makeFetchPredictor(PredictorKind::Gskew, 512 * 1024,
                                 DelayMode::Stall);
    const unsigned latency =
        predictorLatencyCycles(PredictorKind::Gskew, 512 * 1024);
    EXPECT_EQ(fp->predict(0x40).bubbleCycles, latency - 1);
}

TEST(Factory, DualPathAndCascadingModesConstruct)
{
    auto dual = makeFetchPredictor(PredictorKind::Gskew, 256 * 1024,
                                   DelayMode::DualPath);
    EXPECT_NE(dual->name().find("dualpath"), std::string::npos);
    EXPECT_GT(dual->predict(0x40).bubbleCycles, 0u);

    auto casc = makeFetchPredictor(PredictorKind::Gskew, 256 * 1024,
                                   DelayMode::Cascading);
    EXPECT_NE(casc->name().find("cascading"), std::string::npos);
    EXPECT_EQ(casc->predict(0x40).bubbleCycles, 0u);
}

TEST(Factory, DelayModeNamesAreDistinct)
{
    std::set<std::string> names;
    for (auto m : {DelayMode::Ideal, DelayMode::Overriding,
                   DelayMode::Stall, DelayMode::Pipelined,
                   DelayMode::DualPath, DelayMode::Cascading})
        EXPECT_TRUE(names.insert(delayModeName(m)).second);
}

TEST(Factory, YagsConfigurationIsBalanced)
{
    auto y = makePredictor(PredictorKind::Yags, 64 * 1024);
    EXPECT_EQ(y->name(), "yags");
    // Roughly half choice, half tagged caches: storage in budget.
    EXPECT_GE(y->storageBytes(), 16u * 1024);
    EXPECT_LE(y->storageBytes(), 96u * 1024);
}

TEST(Factory, BudgetListsMatchPaper)
{
    EXPECT_EQ(largeBudgetsBytes().size(), 6u);
    EXPECT_EQ(largeBudgetsBytes().front(), 16u * 1024);
    EXPECT_EQ(largeBudgetsBytes().back(), 512u * 1024);
    EXPECT_EQ(figure1BudgetsBytes().front(), 2u * 1024);
}

} // namespace
} // namespace bpsim

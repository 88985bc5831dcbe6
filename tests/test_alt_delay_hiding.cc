/** @file Tests for the dual-path and cascading delay modes of
 *  FetchPredictor (Section 2.6 alternatives to overriding). */

#include "pipeline/fetch_predictor.hh"

#include <gtest/gtest.h>

#include <string>

#include "predictors/gshare.hh"
#include "predictors/static_pred.hh"

namespace bpsim {
namespace {

TEST(DualPath, ChargesHalfLatencyEveryBranch)
{
    FetchPredictor p(DelayMode::DualPath,
                     std::make_unique<StaticPredictor>(true), 8);
    for (int i = 0; i < 10; ++i) {
        const auto fp = p.predict(0x40);
        EXPECT_TRUE(fp.taken);
        EXPECT_EQ(fp.bubbleCycles, 4u);
        p.update(0x40, true);
    }
    EXPECT_EQ(p.slowLatency(), 8u);
}

TEST(DualPath, SingleCycleCostsNothing)
{
    FetchPredictor p(DelayMode::DualPath,
                     std::make_unique<StaticPredictor>(true), 1);
    EXPECT_EQ(p.predict(0x40).bubbleCycles, 0u);
}

TEST(Cascading, NeverBubbles)
{
    FetchPredictor p(DelayMode::Cascading,
                     std::make_unique<StaticPredictor>(false), 4,
                     std::make_unique<StaticPredictor>(true));
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(p.predict(0x40).bubbleCycles, 0u);
        p.update(0x40, false);
    }
}

TEST(Cascading, FirstInstanceUsesQuickPredictor)
{
    // quick says taken, slow says not-taken: with no banked result
    // yet, the quick answer is used.
    FetchPredictor p(DelayMode::Cascading,
                     std::make_unique<StaticPredictor>(false), 4,
                     std::make_unique<StaticPredictor>(true));
    EXPECT_TRUE(p.predict(0x40).taken);
    EXPECT_EQ(p.slowUsed().hits(), 0u);
}

TEST(Cascading, BankedSlowAnswerUsedWhenEnoughTimePassed)
{
    FetchPredictor p(DelayMode::Cascading,
                     std::make_unique<StaticPredictor>(false), 3,
                     std::make_unique<StaticPredictor>(true));
    // First instance: quick (taken). Bank slow (not-taken), ready
    // after 3 more branches.
    EXPECT_TRUE(p.predict(0x40).taken);
    p.update(0x40, false);
    // Fill the pipe with other branches.
    for (Addr pc = 0x100; pc < 0x140; pc += 0x10) {
        p.predict(pc);
        p.update(pc, true);
    }
    // Now the banked slow answer is ready and should win.
    EXPECT_FALSE(p.predict(0x40).taken);
    EXPECT_GE(p.slowUsed().hits(), 1u);
}

TEST(Cascading, TightLoopFallsBackToQuick)
{
    // A branch re-fetched every cycle never has its slow answer
    // ready: latency 5, but only 1 branch between instances.
    FetchPredictor p(DelayMode::Cascading,
                     std::make_unique<StaticPredictor>(false), 5,
                     std::make_unique<StaticPredictor>(true));
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(p.predict(0x40).taken) << "iteration " << i;
        p.update(0x40, false);
        p.predict(0x80);
        p.update(0x80, true);
    }
    EXPECT_EQ(p.slowUsed().hits(), 0u);
}

TEST(Cascading, StorageAndNameAggregate)
{
    FetchPredictor p(DelayMode::Cascading,
                     std::make_unique<GsharePredictor>(1 << 14), 3,
                     std::make_unique<GsharePredictor>(2048));
    EXPECT_GT(p.storageBits(), (1u << 14) * 2);
    EXPECT_NE(p.name().find("cascading"), std::string::npos);
}

} // namespace
} // namespace bpsim

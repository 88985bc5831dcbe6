/** @file Tests for the YAGS predictor. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "predictors/yags.hh"

namespace bpsim {
namespace {

TEST(Yags, LearnsBiasWithoutAllocatingExceptions)
{
    YagsPredictor y(4096, 1024);
    std::size_t wrong = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool pred = y.predict(0x400);
        y.update(0x400, true);
        if (i > 100)
            wrong += pred != true;
    }
    EXPECT_EQ(wrong, 0u);
}

TEST(Yags, ExceptionCacheCapturesHistoryPatterns)
{
    // Bias is taken, but every 4th instance is not-taken — the
    // exception cache must learn the history-correlated exceptions.
    YagsPredictor y(4096, 4096);
    std::size_t wrong = 0, total = 0;
    for (int i = 0; i < 30000; ++i) {
        const bool taken = i % 4 != 3;
        const bool pred = y.predict(0x400);
        y.update(0x400, taken);
        if (i > 15000) {
            ++total;
            wrong += pred != taken;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.02);
}

TEST(Yags, SeparatesOppositelyBiasedAliases)
{
    YagsPredictor y(512, 256);
    Rng rng(3);
    std::size_t wrong = 0, total = 0;
    for (int i = 0; i < 30000; ++i) {
        const bool which = i % 2;
        const Addr pc = which ? 0x1000 : 0x9000;
        const bool taken =
            which ? rng.nextBool(0.97) : rng.nextBool(0.03);
        const bool pred = y.predict(pc);
        y.update(pc, taken);
        if (i > 15000) {
            ++total;
            wrong += pred != taken;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.10);
}

TEST(Yags, StorageCountsTagsAndValidBits)
{
    YagsPredictor y(1024, 512, 8);
    // choice 2048b + 2 caches x 512 x (2+8+1)b + history.
    EXPECT_GE(y.storageBits(), 2048u + 2 * 512 * 11);
    EXPECT_LE(y.storageBits(), 2048u + 2 * 512 * 11 + 64);
}

} // namespace
} // namespace bpsim

/** @file Tests for saturating counters and signed weights. */

#include "common/sat_counter.hh"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/vec_kernels.hh"

namespace bpsim {
namespace {

/** Property sweep over counter widths. */
class SatCounterWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidthTest, SaturatesAtBounds)
{
    const unsigned bits = GetParam();
    SatCounter c(bits, 0);
    const unsigned max = (1u << bits) - 1;
    for (unsigned i = 0; i < 2 * max + 4; ++i)
        c.increment();
    EXPECT_EQ(c.value(), max);
    for (unsigned i = 0; i < 2 * max + 4; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0);
}

TEST_P(SatCounterWidthTest, TakenThresholdIsMidpoint)
{
    const unsigned bits = GetParam();
    const unsigned max = (1u << bits) - 1;
    for (unsigned v = 0; v <= max; ++v) {
        SatCounter c(bits, static_cast<std::uint8_t>(v));
        EXPECT_EQ(c.taken(), v > max / 2) << "value " << v;
    }
}

TEST_P(SatCounterWidthTest, UpdateMovesTowardOutcome)
{
    const unsigned bits = GetParam();
    SatCounter c(bits, static_cast<std::uint8_t>((1u << bits) / 2));
    const auto before = c.value();
    c.update(true);
    EXPECT_GE(c.value(), before);
    c.update(false);
    c.update(false);
    EXPECT_LT(c.value(), before + 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidthTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(TwoBitCounter, MatchesConventionalSemantics)
{
    TwoBitCounter c; // weakly not-taken
    EXPECT_FALSE(c.taken());
    EXPECT_TRUE(c.weak());
    c.update(true); // -> 2 weakly taken
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.weak());
    c.update(true); // -> 3 strongly taken
    EXPECT_TRUE(c.taken());
    EXPECT_FALSE(c.weak());
    c.update(true); // saturate at 3
    EXPECT_EQ(c.value(), 3);
    c.update(false);
    c.update(false);
    c.update(false);
    c.update(false); // saturate at 0
    EXPECT_EQ(c.value(), 0);
    EXPECT_FALSE(c.taken());
}

TEST(TwoBitCounter, HysteresisNeedsTwoFlips)
{
    TwoBitCounter c(3); // strongly taken
    c.update(false);
    EXPECT_TRUE(c.taken()) << "one not-taken must not flip";
    c.update(false);
    EXPECT_FALSE(c.taken());
}

/**
 * The perceptron's weight clamp: a one-element row trained through
 * trainSignedI16Wide with the bounds the perceptron derives from its
 * weight width, lo = -2^(bits-1) and hi = 2^(bits-1) - 1.
 */
class SignedWeightWidthTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    int lo() const { return -(1 << (GetParam() - 1)); }
    int hi() const { return (1 << (GetParam() - 1)) - 1; }

    /** One ±1 training step of @p w toward @p up. */
    void
    train(std::int16_t &w, bool up) const
    {
        const std::int16_t x = 1;
        trainSignedI16Wide(&w, &x, 1, up ? 1 : -1, lo(), hi());
    }
};

TEST_P(SignedWeightWidthTest, SaturatesSymmetrically)
{
    std::int16_t w = 0;
    for (int i = 0; i < 3 * hi(); ++i)
        train(w, true);
    EXPECT_EQ(w, hi());
    for (int i = 0; i < 6 * hi(); ++i)
        train(w, false);
    EXPECT_EQ(w, lo());
}

TEST_P(SignedWeightWidthTest, TrainStepsByOne)
{
    std::int16_t w = 0;
    train(w, true);
    EXPECT_EQ(w, 1);
    train(w, false);
    train(w, false);
    EXPECT_EQ(w, -1);
}

INSTANTIATE_TEST_SUITE_P(Widths, SignedWeightWidthTest,
                         ::testing::Values(2u, 4u, 8u, 12u, 16u));

} // namespace
} // namespace bpsim

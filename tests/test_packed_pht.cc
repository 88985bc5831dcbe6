/**
 * @file
 * Golden equivalence of the bit-packed counter tables against the
 * byte-per-counter reference classes they replaced. Every operation
 * the predictors perform — init, update, taken, weak, value, set —
 * is driven by the same pseudorandom stream on both representations
 * and must agree at every step; the fault-injection field builders
 * must expose the same (count, bits) shape either way.
 */

#include "common/packed_pht.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "robust/state_visitor.hh"

namespace bpsim {
namespace {

TEST(PackedPhtStorage, InitReplicatesEveryCounter)
{
    for (std::uint8_t init = 0; init < 4; ++init) {
        PackedPhtStorage p(37, init); // non-multiple-of-4 size
        ASSERT_EQ(p.size(), 37u);
        for (std::size_t i = 0; i < p.size(); ++i)
            ASSERT_EQ(p.value(i), init) << "init " << int(init)
                                        << " counter " << i;
    }
}

TEST(PackedPhtStorage, MatchesTwoBitCounterUnderRandomOps)
{
    const std::size_t n = 1021; // prime: exercises all byte lanes
    PackedPhtStorage packed(n, 1);
    std::vector<TwoBitCounter> ref(n); // TwoBitCounter inits to 1

    Rng rng(0xbeefcafe);
    for (int step = 0; step < 200000; ++step) {
        const std::size_t i = rng.next() % n;
        switch (rng.next() % 3) {
          case 0: {
              const bool t = rng.next() & 1;
              packed.update(i, t);
              ref[i].update(t);
              break;
          }
          case 1: {
              const std::uint8_t v = rng.next() & 3;
              packed.set(i, v);
              ref[i].set(v);
              break;
          }
          default:
            break;
        }
        ASSERT_EQ(packed.value(i), ref[i].value()) << "step " << step;
        ASSERT_EQ(packed.taken(i), ref[i].taken()) << "step " << step;
        ASSERT_EQ(packed.weak(i), ref[i].weak()) << "step " << step;
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(packed.value(i), ref[i].value()) << "final " << i;
}

TEST(PackedPhtStorage, NeighbourCountersDoNotInterfere)
{
    PackedPhtStorage p(8, 0);
    p.set(2, 3);
    EXPECT_EQ(p.value(1), 0);
    EXPECT_EQ(p.value(2), 3);
    EXPECT_EQ(p.value(3), 0);
    // Saturation cannot carry into a neighbour's lane.
    p.update(2, true);
    EXPECT_EQ(p.value(2), 3);
    EXPECT_EQ(p.value(3), 0);
    p.set(2, 0);
    p.update(2, false);
    EXPECT_EQ(p.value(2), 0);
    EXPECT_EQ(p.value(1), 0);
}

TEST(PackedPhtStorage, FillMatchesSetOverEveryRange)
{
    // Every [first, last) of a 13-counter table, so ranges start and
    // end at each offset within a byte and span zero to three whole
    // bytes; the counters outside the range keep their values.
    const std::size_t n = 13;
    for (std::size_t first = 0; first <= n; ++first)
        for (std::size_t last = first; last <= n; ++last) {
            PackedPhtStorage filled(n, 0), ref(n, 0);
            for (std::size_t i = 0; i < n; ++i) {
                filled.set(i, static_cast<std::uint8_t>(i % 4));
                ref.set(i, static_cast<std::uint8_t>(i % 4));
            }
            filled.fill(first, last, 2);
            for (std::size_t i = first; i < last; ++i)
                ref.set(i, 2);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(filled.value(i), ref.value(i))
                    << "[" << first << ", " << last << ") at " << i;
        }
}

TEST(PackedPhtStorage, ChargesExactlyTwoBitsPerCounter)
{
    EXPECT_EQ(PackedPhtStorage(4096).storageBits(), 8192u);
    EXPECT_EQ(PackedPhtStorage(37).storageBits(), 74u);
}

TEST(PackedSatStorage, MatchesSatCounterAtEveryWidth)
{
    for (unsigned bits = 1; bits <= 8; ++bits) {
        const std::size_t n = 257; // odd: straddles word boundaries
        const std::uint8_t init = static_cast<std::uint8_t>(
            (1u << bits) / 2 > 0 ? (1u << bits) / 2 - 1 : 0);
        PackedSatStorage packed(n, bits, init);
        std::vector<SatCounter> ref(n, SatCounter(bits, init));

        Rng rng(0x5eed0000 + bits);
        for (int step = 0; step < 50000; ++step) {
            const std::size_t i = rng.next() % n;
            if (rng.next() & 1) {
                const bool t = rng.next() & 1;
                packed.update(i, t);
                ref[i].update(t);
            } else {
                const std::uint8_t v = static_cast<std::uint8_t>(
                    rng.next() & packed.maxValue());
                packed.set(i, v);
                ref[i].set(v);
            }
            ASSERT_EQ(packed.value(i), ref[i].value())
                << "bits " << bits << " step " << step;
            ASSERT_EQ(packed.taken(i), ref[i].taken())
                << "bits " << bits << " step " << step;
            ASSERT_EQ(packed.weak(i), ref[i].weak())
                << "bits " << bits << " step " << step;
        }
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(packed.value(i), ref[i].value())
                << "bits " << bits << " final " << i;
    }
}

TEST(PackedSatStorage, StraddlingAccessKeepsNeighboursIntact)
{
    // 3-bit counters: counter 21 occupies bits 63..65, straddling the
    // first word boundary.
    PackedSatStorage p(64, 3, 0);
    p.set(21, 7);
    EXPECT_EQ(p.value(21), 7);
    EXPECT_EQ(p.value(20), 0);
    EXPECT_EQ(p.value(22), 0);
    p.set(20, 5);
    p.set(22, 6);
    EXPECT_EQ(p.value(21), 7);
    p.set(21, 2);
    EXPECT_EQ(p.value(20), 5);
    EXPECT_EQ(p.value(21), 2);
    EXPECT_EQ(p.value(22), 6);
}

TEST(PackedSatStorage, ChargesExactlyBitsPerCounter)
{
    EXPECT_EQ(PackedSatStorage(1024, 3).storageBits(), 3072u);
    EXPECT_EQ(PackedSatStorage(7, 5).storageBits(), 35u);
}

/** The packed field builders must present the exact shape of the
 *  byte-per-counter SatCounter fields (the multicomponent selector's
 *  storage) so fault-plan bit addressing is
 *  representation-independent. */
TEST(PackedFields, SameShapeAndBitsAsReferenceFields)
{
    const std::size_t n = 129;
    PackedPhtStorage packed(n, 1);
    std::vector<SatCounter> ref(n, SatCounter(2, 1));
    auto pf = robust::packedCounterField("pht", packed);
    auto rf = robust::satCounterField("pht", ref, 2);
    EXPECT_EQ(pf.count, rf.count);
    EXPECT_EQ(pf.bits, rf.bits);
    EXPECT_EQ(pf.totalBits(), rf.totalBits());
    EXPECT_EQ(pf.resetValue, rf.resetValue);
    // Raw patterns round-trip identically through either store/load.
    for (std::uint64_t v = 0; v < 4; ++v) {
        robust::store(pf, 5, v);
        robust::store(rf, 5, v);
        EXPECT_EQ(robust::load(pf, 5), robust::load(rf, 5));
    }

    PackedSatStorage packedSat(n, 3, 3);
    std::vector<SatCounter> refSat(n, SatCounter(3, 3));
    auto psf = robust::packedSatField("lpht", packedSat);
    auto rsf = robust::satCounterField("lpht", refSat, 3);
    EXPECT_EQ(psf.count, rsf.count);
    EXPECT_EQ(psf.bits, rsf.bits);
    for (std::uint64_t v = 0; v < 8; ++v) {
        robust::store(psf, 128, v);
        robust::store(rsf, 128, v);
        EXPECT_EQ(robust::load(psf, 128), robust::load(rsf, 128));
    }
}

} // namespace
} // namespace bpsim

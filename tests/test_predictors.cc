/** @file Behavioural tests across the whole predictor suite. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "predictors/bimodal.hh"
#include "predictors/bimode.hh"
#include "predictors/gshare.hh"
#include "predictors/gshare_fast.hh"
#include "predictors/gskew.hh"
#include "predictors/local.hh"
#include "predictors/multicomponent.hh"
#include "predictors/perceptron.hh"
#include "predictors/static_pred.hh"
#include "predictors/tournament.hh"
#include "robust/state_visitor.hh"

namespace bpsim {
namespace {

using Factory = std::function<std::unique_ptr<DirectionPredictor>()>;

std::vector<std::pair<std::string, Factory>>
allPredictors()
{
    return {
        {"bimodal", [] { return std::make_unique<BimodalPredictor>(4096); }},
        {"gshare", [] { return std::make_unique<GsharePredictor>(4096); }},
        {"bimode", [] { return std::make_unique<BiModePredictor>(2048); }},
        {"gskew", [] { return std::make_unique<GskewPredictor>(2048); }},
        {"local",
         [] { return std::make_unique<LocalPredictor>(1024, 10); }},
        {"tournament",
         [] { return std::make_unique<TournamentPredictor>(); }},
        {"perceptron",
         [] { return std::make_unique<PerceptronPredictor>(256, 24, 10); }},
        {"multicomponent",
         [] {
             return std::make_unique<MultiComponentPredictor>(
                 std::vector<MultiComponentPredictor::ComponentSpec>{
                     {1024, 5}, {2048, 8}, {4096, 12}},
                 512, 256, 512);
         }},
        {"gshare.fast",
         [] { return std::make_unique<GshareFastPredictor>(4096, 2); }},
    };
}

/** Run a synthetic outcome stream and return the misprediction rate
 *  over the last half (after warmup). */
double
mispRate(DirectionPredictor &p,
         const std::function<bool(std::uint64_t, Rng &)> &outcome,
         std::size_t n = 20000, unsigned sites = 8)
{
    Rng rng(1234);
    std::size_t wrong = 0, counted = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr pc = 0x1000 + (i % sites) * 16;
        const bool taken = outcome(i, rng);
        const bool pred = p.predict(pc);
        p.update(pc, taken);
        if (i >= n / 2) {
            ++counted;
            wrong += pred != taken ? 1 : 0;
        }
    }
    return static_cast<double>(wrong) / static_cast<double>(counted);
}

class PredictorSuiteTest
    : public ::testing::TestWithParam<std::pair<std::string, Factory>>
{
};

TEST_P(PredictorSuiteTest, LearnsConstantDirection)
{
    auto p = GetParam().second();
    EXPECT_LT(mispRate(*p, [](auto, auto &) { return true; }), 0.01);
    auto q = GetParam().second();
    EXPECT_LT(mispRate(*q, [](auto, auto &) { return false; }), 0.01);
}

TEST_P(PredictorSuiteTest, LearnsShortPeriodicPattern)
{
    // T T N T T N ... is capturable by any history/counter scheme
    // except pure bimodal hysteresis; allow generous slack.
    auto p = GetParam().second();
    const double r =
        mispRate(*p, [](std::uint64_t i, auto &) { return i % 3 != 2; });
    if (GetParam().first == "bimodal") {
        EXPECT_LT(r, 0.40);
    } else {
        EXPECT_LT(r, 0.05) << GetParam().first;
    }
}

TEST_P(PredictorSuiteTest, RandomStreamNearFiftyPercent)
{
    auto p = GetParam().second();
    const double r = mispRate(
        *p, [](auto, Rng &rng) { return rng.nextBool(0.5); });
    EXPECT_GT(r, 0.40) << GetParam().first;
    EXPECT_LT(r, 0.60) << GetParam().first;
}

TEST_P(PredictorSuiteTest, BiasedStreamBeatsCoinFlip)
{
    auto p = GetParam().second();
    const double r = mispRate(
        *p, [](auto, Rng &rng) { return rng.nextBool(0.9); });
    EXPECT_LT(r, 0.15) << GetParam().first;
}

TEST_P(PredictorSuiteTest, ReportsNonzeroStorage)
{
    auto p = GetParam().second();
    EXPECT_GT(p->storageBits(), 0u);
    EXPECT_EQ(p->storageBytes(), (p->storageBits() + 7) / 8);
    EXPECT_FALSE(p->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    All, PredictorSuiteTest, ::testing::ValuesIn(allPredictors()),
    [](const auto &info) {
        std::string n = info.param.first;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(StaticPredictor, FixedDirection)
{
    StaticPredictor taken(true), not_taken(false);
    EXPECT_TRUE(taken.predict(0x40));
    EXPECT_FALSE(not_taken.predict(0x40));
    EXPECT_EQ(taken.storageBits(), 0u);
}

TEST(Gshare, HistoryDisambiguatesSameAddress)
{
    // One branch whose outcome is the outcome of 4 branches ago:
    // bimodal stays near 50%, gshare learns it.
    auto pattern = [](std::uint64_t /*i*/, Rng &rng) {
        static thread_local std::vector<bool> hist;
        bool out;
        if (hist.size() < 4) {
            out = rng.nextBool(0.5);
        } else {
            out = hist[hist.size() - 4];
        }
        hist.push_back(out);
        return out;
    };
    // Note: the pattern above is self-referential and converges to a
    // fixed cycle, which is exactly what history predictors exploit.
    GsharePredictor g(4096);
    BimodalPredictor b(4096);
    const double rg = mispRate(g, pattern, 20000, 1);
    EXPECT_LT(rg, 0.02);
    (void)b;
}

TEST(Local, CapturesPerBranchPeriodicity)
{
    // Two interleaved branches with different periods confuse a
    // global-history-only view at short history but are trivial for
    // per-branch local histories.
    LocalPredictor local(256, 10);
    std::size_t wrong = 0, total = 0;
    for (std::size_t i = 0; i < 30000; ++i) {
        const Addr pc = (i % 2) ? 0x100 : 0x200;
        const bool taken =
            (i % 2) ? ((i / 2) % 5 != 0) : ((i / 2) % 7 != 0);
        const bool pred = local.predict(pc);
        local.update(pc, taken);
        if (i > 15000) {
            ++total;
            wrong += pred != taken;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.02);
}

TEST(Perceptron, ThresholdMatchesTocsFormula)
{
    PerceptronPredictor p(64, 20, 10);
    EXPECT_EQ(p.threshold(), static_cast<int>(1.93 * 30) + 14);
}

TEST(Perceptron, LearnsLinearlySeparableCorrelation)
{
    // Outcome = outcome 2 back XOR outcome 5 back is NOT linearly
    // separable; outcome = outcome 3 back is. Check the latter.
    PerceptronPredictor p(256, 16, 0);
    std::vector<bool> hist{true, false, true};
    std::size_t wrong = 0, total = 0;
    for (std::size_t i = 0; i < 20000; ++i) {
        const bool taken = hist[hist.size() - 3];
        const bool pred = p.predict(0x100);
        p.update(0x100, taken);
        hist.push_back(taken);
        if (i > 10000) {
            ++total;
            wrong += pred != taken;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.01);
}

/** The TOCS perceptron with its ±1 inputs built one history bit at a
 *  time, as the reference for PerceptronPredictor's table-built
 *  inputs. */
class ScalarPerceptron
{
  public:
    ScalarPerceptron(std::size_t rows, unsigned global_bits,
                     unsigned local_bits, std::size_t local_entries)
        : rows_(rows), globalBits_(global_bits), localBits_(local_bits),
          threshold_(static_cast<int>(1.93 * (global_bits + local_bits)) +
                     14),
          weights_(rows * (1 + global_bits + local_bits), 0),
          global_(global_bits, false), local_(local_entries, 0)
    {}

    bool
    predict(Addr pc)
    {
        out_ = 0;
        const std::vector<int> x = inputs(pc);
        for (std::size_t j = 0; j < x.size(); ++j)
            out_ += weights_[rowBase(pc) + j] * x[j];
        return out_ >= 0;
    }

    void
    update(Addr pc, bool taken)
    {
        if ((out_ >= 0) != taken || std::abs(out_) <= threshold_) {
            const std::vector<int> x = inputs(pc);
            for (std::size_t j = 0; j < x.size(); ++j) {
                int &w = weights_[rowBase(pc) + j];
                w = std::clamp(w + (taken ? 1 : -1) * x[j], -128, 127);
            }
        }
        global_.insert(global_.begin(), taken);
        global_.pop_back();
        std::uint64_t &lh = local_[localIndex(pc)];
        lh = ((lh << 1) | (taken ? 1 : 0)) &
             ((std::uint64_t{1} << localBits_) - 1);
    }

    /** Weights as 8-bit two's-complement patterns, row by row. */
    std::vector<std::uint64_t>
    weightBits() const
    {
        std::vector<std::uint64_t> bits;
        for (int w : weights_)
            bits.push_back(static_cast<std::uint64_t>(w) & 0xff);
        return bits;
    }

  private:
    std::size_t
    rowBase(Addr pc) const
    {
        return static_cast<std::size_t>(pc >> 4) % rows_ *
               (1 + globalBits_ + localBits_);
    }

    std::size_t
    localIndex(Addr pc) const
    {
        return static_cast<std::size_t>(pc >> 4) & (local_.size() - 1);
    }

    std::vector<int>
    inputs(Addr pc) const
    {
        std::vector<int> x{1};
        for (unsigned i = 0; i < globalBits_; ++i)
            x.push_back(global_[i] ? 1 : -1);
        const std::uint64_t lh = local_[localIndex(pc)];
        for (unsigned i = 0; i < localBits_; ++i)
            x.push_back((lh >> i) & 1 ? 1 : -1);
        return x;
    }

    std::size_t rows_;
    unsigned globalBits_;
    unsigned localBits_;
    int threshold_;
    int out_ = 0;
    std::vector<int> weights_;
    std::vector<bool> global_; ///< newest outcome first
    std::vector<std::uint64_t> local_;
};

/** The raw bits of the field named @p name. */
class FieldBits : public robust::StateVisitor
{
  public:
    explicit FieldBits(std::string name) : name_(std::move(name)) {}

    void
    visit(const robust::StateField &field) override
    {
        if (field.name == name_)
            for (std::size_t i = 0; i < field.count; ++i)
                bits.push_back(robust::load(field, i));
    }

    std::vector<std::uint64_t> bits;

  private:
    std::string name_;
};

TEST(Perceptron, InputsMatchPerBitReference)
{
    // History lengths around each 8-bit table row and 64-bit word
    // boundary, with and without local inputs behind the global ones.
    for (unsigned gb : {1u, 7u, 8u, 9u, 44u, 63u, 64u, 65u, 130u})
        for (unsigned lb : {0u, 10u}) {
            SCOPED_TRACE("global " + std::to_string(gb) + ", local " +
                         std::to_string(lb));
            PerceptronPredictor p(37, gb, lb, 64);
            ScalarPerceptron ref(37, gb, lb, 64);
            Rng rng(gb * 100 + lb);
            std::size_t mismatches = 0;
            for (unsigned i = 0; i < 6000; ++i) {
                const Addr pc = 0x4000 + 16 * rng.nextRange(97);
                // Per-branch bias plus noise: most pcs lean one way,
                // so weights both grow and saturate.
                const bool taken = rng.nextBool((pc >> 4) % 3 == 0
                                                    ? 0.5
                                                    : ((pc >> 4) % 2 ? 0.9
                                                                     : 0.1));
                mismatches += p.predict(pc) != ref.predict(pc);
                p.update(pc, taken);
                ref.update(pc, taken);
            }
            EXPECT_EQ(mismatches, 0u);
            FieldBits weights("pred.perceptron.weights");
            p.visitState(weights);
            EXPECT_EQ(weights.bits, ref.weightBits());
        }
}

TEST(MultiComponent, SelectsWorkingComponentPerBranch)
{
    // Branch A needs long history (period 11); branch B is biased.
    MultiComponentPredictor mc(
        {{1024, 4}, {2048, 12}}, 512, 256, 512);
    EXPECT_EQ(mc.numComponents(), 4u); // bimodal + local + 2 globals
    std::size_t wrong = 0, total = 0;
    for (std::size_t i = 0; i < 40000; ++i) {
        const Addr pc = (i % 2) ? 0x100 : 0x200;
        const bool taken = (i % 2) ? ((i / 2) % 11 != 0) : true;
        const bool pred = mc.predict(pc);
        mc.update(pc, taken);
        if (i > 20000) {
            ++total;
            wrong += pred != taken;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.06);
}

TEST(BiMode, SeparatesOppositeBiases)
{
    // Two branches that alias in a small table but have opposite
    // biases: bi-mode's banks keep them apart.
    BiModePredictor bm(512);
    std::size_t wrong = 0, total = 0;
    Rng rng(5);
    for (std::size_t i = 0; i < 30000; ++i) {
        const bool which = i % 2;
        const Addr pc = which ? 0x1000 : 0x9000;
        const bool taken = which ? rng.nextBool(0.95)
                                 : rng.nextBool(0.05);
        const bool pred = bm.predict(pc);
        bm.update(pc, taken);
        if (i > 15000) {
            ++total;
            wrong += pred != taken;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.12);
}

} // namespace
} // namespace bpsim

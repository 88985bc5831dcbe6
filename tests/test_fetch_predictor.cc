/** @file Tests for FetchPredictor's delay modes and the column
 *  pass. */

#include "pipeline/fetch_predictor.hh"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/factory.hh"
#include "predictors/gshare.hh"
#include "predictors/static_pred.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

TEST(SingleCycle, NeverBubbles)
{
    FetchPredictor p(DelayMode::Ideal,
                     std::make_unique<StaticPredictor>(true));
    for (int i = 0; i < 100; ++i) {
        const auto fp = p.predict(0x100 + i * 16);
        EXPECT_TRUE(fp.taken);
        EXPECT_EQ(fp.bubbleCycles, 0u);
        p.update(0x100 + i * 16, i % 2 == 0);
    }
}

TEST(Overriding, AgreementCostsNothing)
{
    // Quick and slow both always-taken: never a bubble.
    FetchPredictor p(DelayMode::Overriding,
                     std::make_unique<StaticPredictor>(true), 4,
                     std::make_unique<StaticPredictor>(true));
    for (int i = 0; i < 50; ++i) {
        const auto fp = p.predict(0x40);
        EXPECT_TRUE(fp.taken);
        EXPECT_EQ(fp.bubbleCycles, 0u);
        p.update(0x40, true);
    }
    EXPECT_EQ(p.disagreements().hits(), 0u);
    EXPECT_EQ(p.disagreements().total(), 50u);
}

TEST(Overriding, DisagreementCostsSlowLatencyAndSlowWins)
{
    FetchPredictor p(DelayMode::Overriding,
                     std::make_unique<StaticPredictor>(false), 7,
                     std::make_unique<StaticPredictor>(true));
    const auto fp = p.predict(0x40);
    EXPECT_FALSE(fp.taken) << "the slow predictor's answer is final";
    EXPECT_EQ(fp.bubbleCycles, 7u);
    EXPECT_EQ(p.disagreements().hits(), 1u);
    EXPECT_EQ(p.slowLatency(), 7u);
}

TEST(Overriding, TracksDisagreementRateOnRealPredictors)
{
    // A warm slow predictor corrects a cold quick one on a
    // structured stream, producing a nonzero but sub-50% rate.
    FetchPredictor p(DelayMode::Overriding,
                     std::make_unique<GsharePredictor>(1 << 14), 3,
                     std::make_unique<GsharePredictor>(64));
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr pc = 0x100 + (x % 96) * 16;
        const bool taken = (x >> 13) % 5 != 0;
        p.predict(pc);
        p.update(pc, taken);
    }
    const double rate = p.disagreements().rate();
    EXPECT_GT(rate, 0.0);
    EXPECT_LT(rate, 0.5);
}

TEST(Overriding, StorageIsQuickPlusSlow)
{
    FetchPredictor p(DelayMode::Overriding,
                     std::make_unique<GsharePredictor>(1 << 16), 3,
                     std::make_unique<GsharePredictor>(2048));
    EXPECT_EQ(p.storageBits(),
              p.quick().storageBits() + p.slow().storageBits());
    EXPECT_NE(p.name().find("overriding"), std::string::npos);
}

TEST(Delayed, EveryPredictionBubbles)
{
    FetchPredictor p(DelayMode::Stall,
                     std::make_unique<StaticPredictor>(true), 5);
    for (int i = 0; i < 10; ++i) {
        const auto fp = p.predict(0x40);
        EXPECT_EQ(fp.bubbleCycles, 4u) << "latency - 1 stall cycles";
        p.update(0x40, true);
    }
}

TEST(Delayed, SingleCycleLatencyMeansNoBubble)
{
    FetchPredictor p(DelayMode::Stall,
                     std::make_unique<StaticPredictor>(true), 1);
    EXPECT_EQ(p.predict(0x40).bubbleCycles, 0u);
}

TEST(ColumnPass, RecordsEachPredictionBeforeItsUpdate)
{
    // One entry per conditional branch, in trace order: what the
    // predictor answered before being trained on that branch.
    const auto w = makeWorkload("300.twolf");
    const TraceBuffer t = generateTrace(*w, 20000, 42);
    auto pred = makeFetchPredictor(PredictorKind::Perceptron, 64 * 1024,
                                   DelayMode::Overriding);
    auto ref = makeFetchPredictor(PredictorKind::Perceptron, 64 * 1024,
                                  DelayMode::Overriding);
    const PredictionColumn column = predictColumn(*pred, t);
    const BranchSpan view = t.branchView();
    ASSERT_EQ(column.size(), t.condBranches());
    Counter bubbled = 0;
    for (std::size_t i = 0; i < view.size(); ++i) {
        const FetchPrediction fp = ref->predict(view.pc(i));
        ref->update(view.pc(i), view.taken(i));
        ASSERT_EQ(column.taken(i), fp.taken) << i;
        ASSERT_EQ(column.bubbleCycles(i), fp.bubbleCycles) << i;
        bubbled += fp.bubbleCycles > 0;
    }
    EXPECT_GT(bubbled, 0u);
    // The replayed predictor reports what the reference does.
    const auto got = pred->describeStats();
    const auto want = ref->describeStats();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].value, want[i].value) << got[i].name;
    }
}

TEST(ColumnPass, DigestSeesEveryEntryAndTheLength)
{
    PredictionColumn a, b;
    for (unsigned i = 0; i < 37; ++i) {
        a.push(i % 3 == 0, i % 5);
        b.push(i % 3 == 0, i % 5);
    }
    EXPECT_EQ(a.digest(), b.digest());
    PredictionColumn taken = a, notTaken = a, bubbled = a;
    taken.push(true, 0);
    notTaken.push(false, 0);
    bubbled.push(true, 1);
    EXPECT_NE(taken.digest(), a.digest());
    EXPECT_NE(taken.digest(), notTaken.digest());
    EXPECT_NE(taken.digest(), bubbled.digest());
    EXPECT_NE(PredictionColumn{}.digest(), a.digest());
    EXPECT_THROW(a.push(true, PredictionColumn::kMaxBubbleCycles + 1u),
                 std::out_of_range);
}

TEST(ColumnPass, GshareFastIdealAndOverridingColumnsAreIdentical)
{
    // E7: gshare.fast's pipelining delivers every prediction in one
    // cycle, so its "overriding" configuration is its ideal one and
    // Figure 7's two graphs share its column by construction. Checked
    // on the column pass itself, for every stand-in at every Figure 7
    // budget.
    for (const std::string &name : specint2000Names()) {
        const TraceBuffer t =
            generateTrace(*makeWorkload(name), 20000, 42);
        for (std::size_t budget : largeBudgetsBytes()) {
            SCOPED_TRACE(name + " @" + std::to_string(budget));
            auto ideal = makeFetchPredictor(PredictorKind::GshareFast,
                                            budget, DelayMode::Ideal);
            auto over = makeFetchPredictor(PredictorKind::GshareFast,
                                           budget,
                                           DelayMode::Overriding);
            const PredictionColumn a = predictColumn(*ideal, t);
            const PredictionColumn b = predictColumn(*over, t);
            ASSERT_EQ(a.size(), t.condBranches());
            ASSERT_EQ(a.size(), b.size());
            EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                  a.size() * sizeof(*a.data())),
                      0);
        }
    }
}

TEST(FetchPredictor, QuickPredictorOnlyWhereTheModeUsesOne)
{
    EXPECT_THROW(FetchPredictor(DelayMode::Overriding,
                                std::make_unique<StaticPredictor>(true),
                                4),
                 std::invalid_argument);
    EXPECT_THROW(FetchPredictor(DelayMode::Stall,
                                std::make_unique<StaticPredictor>(true),
                                4,
                                std::make_unique<StaticPredictor>(true)),
                 std::invalid_argument);
    EXPECT_THROW(FetchPredictor(DelayMode::Ideal, nullptr),
                 std::invalid_argument);
}

TEST(FetchPredictor, EveryModeForwardsSlowStats)
{
    // Every delay mode reports its slow predictor's describeStats(),
    // as a lone replay of that predictor would; overriding appends
    // its three fetch.overriding.* gauges.
    const std::size_t budget = 64 * 1024;
    const TraceBuffer t =
        generateTrace(*makeWorkload("300.twolf"), 20000, 42);
    const BranchSpan view = t.branchView();
    auto lone = makePredictor(PredictorKind::MultiComponent, budget);
    for (std::size_t i = 0; i < view.size(); ++i) {
        lone->predict(view.pc(i));
        lone->update(view.pc(i), view.taken(i));
    }
    const auto want = lone->describeStats();
    ASSERT_FALSE(want.empty());
    for (auto mode : {DelayMode::Ideal, DelayMode::Overriding,
                      DelayMode::Stall, DelayMode::Pipelined,
                      DelayMode::DualPath, DelayMode::Cascading}) {
        SCOPED_TRACE(delayModeName(mode));
        auto fp =
            makeFetchPredictor(PredictorKind::MultiComponent, budget, mode);
        predictColumn(*fp, t);
        const auto got = fp->describeStats();
        const std::size_t extra = mode == DelayMode::Overriding ? 3 : 0;
        ASSERT_EQ(got.size(), want.size() + extra);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].name, want[i].name);
            EXPECT_EQ(got[i].value, want[i].value) << got[i].name;
        }
        for (std::size_t i = want.size(); i < got.size(); ++i)
            EXPECT_EQ(got[i].name.rfind("fetch.overriding.", 0), 0u)
                << got[i].name;
    }
}

TEST(ColumnPass, DelayModesAreFunctionsOfTheDirectionStreams)
{
    // Each delay mode is a rule over two direction streams, a lone
    // quick 2K gshare's (q) and a lone slow predictor's (s), with L
    // the slow predictor's latency: ideal gives s with no bubble,
    // overriding s with L bubbles where q != s, stall s with L - 1
    // and dual-path s with L / 2 on every branch. Cascading serves
    // the s a branch's previous instance banked once L branches have
    // passed, q otherwise, with no bubble.
    const std::size_t budget = 64 * 1024;
    for (const std::string &name : specint2000Names()) {
        const TraceBuffer t =
            generateTrace(*makeWorkload(name), 20000, 42);
        const BranchSpan view = t.branchView();
        for (auto kind : {PredictorKind::Perceptron,
                          PredictorKind::MultiComponent,
                          PredictorKind::Gshare}) {
            SCOPED_TRACE(name + " " + kindName(kind));
            const unsigned L = predictorLatencyCycles(kind, budget);
            ASSERT_GT(L, 1u) << "every mode would be ideal";
            GsharePredictor quick(quickPredictorEntries);
            auto slow = makePredictor(kind, budget);
            std::vector<bool> q(view.size()), s(view.size());
            for (std::size_t i = 0; i < view.size(); ++i) {
                q[i] = quick.predict(view.pc(i));
                s[i] = slow->predict(view.pc(i));
                quick.update(view.pc(i), view.taken(i));
                slow->update(view.pc(i), view.taken(i));
            }
            std::vector<bool> cascaded(view.size());
            std::unordered_map<Addr, std::pair<std::size_t, bool>> bank;
            for (std::size_t i = 0; i < view.size(); ++i) {
                const auto it = bank.find(view.pc(i));
                cascaded[i] = it != bank.end() && it->second.first <= i
                                  ? it->second.second
                                  : q[i];
                bank[view.pc(i)] = {i + L, s[i]};
            }

            for (auto mode : {DelayMode::Ideal, DelayMode::Overriding,
                              DelayMode::Stall, DelayMode::DualPath,
                              DelayMode::Cascading}) {
                auto fp = makeFetchPredictor(kind, budget, mode);
                const PredictionColumn col = predictColumn(*fp, t);
                ASSERT_EQ(col.size(), view.size());
                for (std::size_t i = 0; i < view.size(); ++i) {
                    bool taken = s[i];
                    unsigned bubbles = 0;
                    switch (mode) {
                      case DelayMode::Overriding:
                        bubbles = q[i] != s[i] ? L : 0;
                        break;
                      case DelayMode::Stall:
                        bubbles = L - 1;
                        break;
                      case DelayMode::DualPath:
                        bubbles = L / 2;
                        break;
                      case DelayMode::Cascading:
                        taken = cascaded[i];
                        break;
                      default:
                        break;
                    }
                    ASSERT_EQ(col.taken(i), taken)
                        << delayModeName(mode) << ", branch " << i;
                    ASSERT_EQ(col.bubbleCycles(i), bubbles)
                        << delayModeName(mode) << ", branch " << i;
                }
            }
        }
    }
}

} // namespace
} // namespace bpsim

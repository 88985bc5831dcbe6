/** @file End-to-end integration tests: the full experiment pipeline
 *  on reduced trace lengths, checking the paper's qualitative
 *  claims hold through the whole stack. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/factory.hh"
#include "core/runner.hh"

namespace bpsim {
namespace {

class IntegrationTest : public ::testing::Test
{
  protected:
    static const SuiteTraces &
    suite()
    {
        static SuiteTraces s(120000, 42);
        return s;
    }

    /** Arithmetic-mean misprediction percent of one config. */
    static double
    meanPercent(
        std::function<std::unique_ptr<DirectionPredictor>()> make)
    {
        std::vector<AccuracyCellConfig> cells = {
            {std::move(make), "probe", 0}};
        obs::RunReport report;
        suiteAccuracyReportEnsemble(suite(), cells, report);
        return cells[0].meanPercent;
    }

    /** Harmonic-mean IPC of one config on the default core. */
    static double
    harmonicMeanIpc(
        std::function<std::unique_ptr<FetchPredictor>()> make)
    {
        std::vector<TimingCellConfig> cells = {
            {std::move(make), "probe", "probe", 0, CoreConfig{}}};
        obs::RunReport report;
        suiteTimingReportEnsemble(suite(), cells, report);
        return cells[0].harmonicMeanIpc;
    }
};

TEST_F(IntegrationTest, AccuracyOrderingMatchesPaper)
{
    // Perceptron and multi-component are the most accurate;
    // bimodal is the least (Figures 1 and 5).
    auto mean_of = [&](PredictorKind k) {
        return meanPercent([&] { return makePredictor(k, 64 * 1024); });
    };
    const double bimodal = mean_of(PredictorKind::Bimodal);
    const double gshare = mean_of(PredictorKind::Gshare);
    const double perceptron = mean_of(PredictorKind::Perceptron);
    const double mc = mean_of(PredictorKind::MultiComponent);
    const double fast = mean_of(PredictorKind::GshareFast);

    EXPECT_LT(perceptron, gshare);
    EXPECT_LT(mc, gshare);
    EXPECT_LT(gshare, bimodal);
    // gshare.fast trades a little accuracy for its pipeline; it must
    // stay close to gshare (the paper's Figure 5 story).
    EXPECT_LT(fast, bimodal);
    EXPECT_NEAR(fast, gshare, 1.0);
}

TEST_F(IntegrationTest, EveryPredictorBeatsStaticBaseline)
{
    for (auto kind : allKinds()) {
        const double m = meanPercent(
            [&] { return makePredictor(kind, 64 * 1024); });
        EXPECT_LT(m, 25.0) << kindName(kind);
        EXPECT_GT(m, 0.5) << kindName(kind)
                          << " (suspiciously perfect)";
    }
}

TEST_F(IntegrationTest, OverridingNeverBeatsIdealOfSamePredictor)
{
    for (auto kind :
         {PredictorKind::Perceptron, PredictorKind::MultiComponent}) {
        const double ideal = harmonicMeanIpc([&] {
            return makeFetchPredictor(kind, 256 * 1024,
                                      DelayMode::Ideal);
        });
        const double over = harmonicMeanIpc([&] {
            return makeFetchPredictor(kind, 256 * 1024,
                                      DelayMode::Overriding);
        });
        EXPECT_LE(over, ideal + 1e-9) << kindName(kind);
        EXPECT_GT(over, 0.0);
    }
}

TEST_F(IntegrationTest, GshareFastIpcUnaffectedByDelayMode)
{
    const double pipelined = harmonicMeanIpc([&] {
        return makeFetchPredictor(PredictorKind::GshareFast,
                                  256 * 1024, DelayMode::Pipelined);
    });
    const double ideal = harmonicMeanIpc([&] {
        return makeFetchPredictor(PredictorKind::GshareFast,
                                  256 * 1024, DelayMode::Ideal);
    });
    EXPECT_DOUBLE_EQ(pipelined, ideal)
        << "pipelining hides all delay: identical to a zero-delay "
           "predictor";
}

TEST_F(IntegrationTest, StallModeIsWorseThanOverriding)
{
    const double stall = harmonicMeanIpc([&] {
        return makeFetchPredictor(PredictorKind::Perceptron,
                                  256 * 1024, DelayMode::Stall);
    });
    const double over = harmonicMeanIpc([&] {
        return makeFetchPredictor(PredictorKind::Perceptron,
                                  256 * 1024, DelayMode::Overriding);
    });
    EXPECT_LT(stall, over)
        << "overriding exists because stalling on every branch is "
           "worse (Section 2.6)";
}

TEST_F(IntegrationTest, DisagreementRateInPaperRange)
{
    // Section 4.5: the slow predictor overrides a few percent of
    // predictions on average, up to ~18% on the hardest benchmark.
    CoreConfig cfg;
    RateStat agg;
    double worst = 0;
    for (std::size_t i = 0; i < suite().size(); ++i) {
        auto fp = makeFetchPredictor(PredictorKind::Perceptron,
                                     64 * 1024, DelayMode::Overriding);
        auto *over = dynamic_cast<OverridingFetchPredictor *>(fp.get());
        ASSERT_NE(over, nullptr);
        runTiming(cfg, *fp, suite().trace(i));
        agg.addEvents(over->disagreements().hits(),
                      over->disagreements().total());
        worst = std::max(worst, over->disagreements().percent());
    }
    EXPECT_GT(agg.percent(), 1.0);
    EXPECT_LT(agg.percent(), 25.0);
    EXPECT_LT(worst, 40.0);
}

} // namespace
} // namespace bpsim

/**
 * @file
 * Tests for the parallel suite helpers: trace generation and
 * RunReports that are byte-identical to a serial run at any job
 * count, the contract the cell pool exists for. The pool's own
 * contract (commit order, exception semantics, stats) is tested in
 * test_cell_pool.cc.
 */

#include "parallel/cell_pool.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/factory.hh"
#include "core/runner.hh"
#include "predictors/static_pred.hh"
#include "robust/protection.hh"

namespace bpsim {
namespace {

using parallel::CellPool;

// ---------------------------------------------------------------------
// Suite-level determinism: the acceptance contract is that a parallel
// run's RunReport JSON is byte-identical to the serial one.
// ---------------------------------------------------------------------

obs::RunReport
freshReport()
{
    obs::RunReport report;
    report.experiment = "parallel_determinism";
    return report;
}

TEST(ParallelSuite, TraceGenerationMatchesSerial)
{
    const SuiteTraces serial(8000, 11);
    CellPool pool(4);
    const SuiteTraces par(8000, 11, &pool);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(par.trace(i).size(), serial.trace(i).size());
        for (std::size_t k = 0; k < serial.trace(i).size(); ++k) {
            const MicroOp &a = serial.trace(i)[k];
            const MicroOp &b = par.trace(i)[k];
            ASSERT_EQ(a.pc, b.pc) << i << "/" << k;
            ASSERT_EQ(a.taken, b.taken) << i << "/" << k;
            ASSERT_EQ(static_cast<int>(a.cls),
                      static_cast<int>(b.cls))
                << i << "/" << k;
        }
    }
}

TEST(ParallelSuite, AccuracyReportByteIdenticalAtAnyJobCount)
{
    const SuiteTraces suite(10000, 5);
    const auto configs = [] {
        return std::vector<AccuracyCellConfig>{
            {[] { return makePredictor(PredictorKind::Gshare, 4 * 1024); },
             "gshare", 4 * 1024}};
    };

    obs::RunReport serial = freshReport();
    obs::MetricRegistry serialMetrics;
    std::vector<AccuracyCellConfig> serialCells = configs();
    suiteAccuracyReportEnsemble(suite, serialCells, serial,
                                &serialMetrics, nullptr);
    const std::string serialBytes = serial.toJson().dump(2);
    const std::string serialMetricBytes =
        serialMetrics.toJson().dump(2);

    // jobs > cells (32 vs 12) is deliberately included.
    for (unsigned jobs : {2u, 4u, 32u}) {
        CellPool pool(jobs);
        obs::RunReport report = freshReport();
        obs::MetricRegistry metrics;
        std::vector<AccuracyCellConfig> cells = configs();
        suiteAccuracyReportEnsemble(suite, cells, report, &metrics,
                                    &pool);
        EXPECT_DOUBLE_EQ(cells[0].meanPercent,
                         serialCells[0].meanPercent)
            << "jobs " << jobs;
        EXPECT_EQ(report.toJson().dump(2), serialBytes)
            << "jobs " << jobs;
        EXPECT_EQ(metrics.toJson().dump(2), serialMetricBytes)
            << "jobs " << jobs;
        EXPECT_EQ(pool.stats().cellsCompleted, suite.size());
    }
}

/** A mixed timing sweep: two delay modes, a non-default core and
 *  a per-workload protected fetch predictor. */
std::vector<TimingCellConfig>
mixedTimingConfigs()
{
    CoreConfig cfg;
    CoreConfig deep;
    deep.frontEndDepth = 20;
    std::vector<TimingCellConfig> cells;
    cells.push_back(
        {[] {
             return std::make_unique<FetchPredictor>(
                 DelayMode::Ideal,
                 makePredictor(PredictorKind::GshareFast, 16 * 1024));
         },
         "gshare.fast", "ideal", 16 * 1024, cfg});
    cells.push_back({[] {
                         return makeFetchPredictor(
                             PredictorKind::Perceptron, 16 * 1024,
                             DelayMode::Overriding);
                     },
                     "perceptron", "overriding@depth20", 16 * 1024,
                     deep});
    TimingCellConfig prot;
    prot.makeForWorkload = [](std::size_t w) {
        robust::ProtectionConfig pc;
        pc.policy = robust::ProtectionPolicy::ParityInvalidate;
        robust::FaultPlan plan;
        plan.upsetRatePerBit = 1e-3;
        plan.intervalBranches = 256;
        plan.seed = 300 + w;
        return makeProtectedFetchPredictor(PredictorKind::Gshare,
                                           16 * 1024,
                                           DelayMode::Overriding, pc,
                                           plan);
    };
    prot.name = "gshare.parity";
    prot.mode = "overriding";
    prot.budgetBytes = 16 * 1024;
    prot.cfg = cfg;
    cells.push_back(std::move(prot));
    return cells;
}

TEST(ParallelSuite, TimingReportByteIdenticalAtAnyJobCount)
{
    const SuiteTraces suite(6000, 6);

    obs::RunReport serial = freshReport();
    obs::MetricRegistry serialMetrics;
    std::vector<TimingCellConfig> serialCells = mixedTimingConfigs();
    suiteTimingReportEnsemble(suite, serialCells, serial,
                              &serialMetrics, nullptr, nullptr);
    const std::string serialBytes = serial.toJson().dump(2);
    const std::string serialMetricBytes =
        serialMetrics.toJson().dump(2);

    // 36 cells: jobs 32 still leaves some workers a second cell.
    for (unsigned jobs : {2u, 4u, 32u}) {
        CellPool pool(jobs);
        obs::RunReport report = freshReport();
        obs::MetricRegistry metrics;
        std::vector<TimingCellConfig> cells = mixedTimingConfigs();
        suiteTimingReportEnsemble(suite, cells, report, &metrics,
                                  nullptr, &pool);
        for (std::size_t c = 0; c < cells.size(); ++c)
            EXPECT_DOUBLE_EQ(cells[c].harmonicMeanIpc,
                             serialCells[c].harmonicMeanIpc)
                << "jobs " << jobs << " config " << c;
        EXPECT_EQ(report.toJson().dump(2), serialBytes)
            << "jobs " << jobs;
        EXPECT_EQ(metrics.toJson().dump(2), serialMetricBytes)
            << "jobs " << jobs;
        EXPECT_EQ(pool.stats().cellsCompleted,
                  cells.size() * suite.size());
    }
}

} // namespace
} // namespace bpsim

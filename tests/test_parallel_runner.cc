/**
 * @file
 * Tests for the deterministic cell pool (src/parallel) and the
 * parallel suite helpers: every index computed exactly once, commits
 * in strict index order, serial-exact exception semantics, and —
 * the contract the whole subsystem exists for — RunReports that are
 * byte-identical to a serial run at any job count.
 */

#include "parallel/cell_pool.hh"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.hh"
#include "core/runner.hh"
#include "predictors/static_pred.hh"
#include "robust/protection.hh"

namespace bpsim {
namespace {

using parallel::CellPool;

TEST(CellPool, ComputesEveryIndexOnceAndCommitsInOrder)
{
    constexpr std::size_t kCells = 32;
    CellPool pool(4);
    std::array<std::atomic<int>, kCells> computed{};
    std::vector<std::size_t> committed; // commit is single-threaded
    pool.run(
        kCells, [&](std::size_t i) { computed[i].fetch_add(1); },
        [&](std::size_t i) { committed.push_back(i); });
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(computed[i].load(), 1) << "cell " << i;
    ASSERT_EQ(committed.size(), kCells);
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(committed[i], i);
}

TEST(CellPool, SingleJobRunsInlineOnCallingThread)
{
    CellPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::size_t calls = 0;
    pool.run(8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
    });
    EXPECT_EQ(calls, 8u);
    EXPECT_EQ(pool.stats().jobs, 1u);
}

TEST(CellPool, MoreJobsThanCells)
{
    CellPool pool(32);
    std::array<std::atomic<int>, 3> computed{};
    std::vector<std::size_t> committed;
    pool.run(
        3, [&](std::size_t i) { computed[i].fetch_add(1); },
        [&](std::size_t i) { committed.push_back(i); });
    for (auto &c : computed)
        EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(pool.stats().maxQueueDepth, 0u);
}

TEST(CellPool, ComputeFailureRethrowsLowestIndexAfterJoin)
{
    // Whichever worker fails first, the pool joins and rethrows the
    // lowest failing index, exactly where a serial loop would have
    // stopped, with every cell before it committed in order.
    for (unsigned jobs : {4u, 8u}) {
        CellPool pool(jobs);
        std::vector<std::size_t> committed;
        try {
            pool.run(
                16,
                [&](std::size_t i) {
                    if (i >= 3)
                        throw std::runtime_error("cell " +
                                                 std::to_string(i));
                },
                [&](std::size_t i) { committed.push_back(i); });
            ADD_FAILURE() << "expected run() to throw at jobs "
                          << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "cell 3") << "jobs " << jobs;
        }
        EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2}))
            << "jobs " << jobs;
    }
}

TEST(CellPool, CommitFailureCancelsOutstandingCells)
{
    CellPool pool(4);
    std::vector<std::size_t> committed;
    EXPECT_THROW(
        pool.run(
            64, [](std::size_t) {},
            [&](std::size_t i) {
                if (i == 2)
                    throw std::runtime_error("commit failed");
                committed.push_back(i);
            }),
        std::runtime_error);
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1}));
}

TEST(CellPool, StatsAccumulateAcrossRuns)
{
    CellPool pool(2);
    pool.run(5, [](std::size_t) {});
    pool.run(3, [](std::size_t) {});
    const auto &s = pool.stats();
    EXPECT_EQ(s.jobs, 2u);
    EXPECT_EQ(s.runs, 2u);
    EXPECT_EQ(s.cellsCompleted, 8u);
    EXPECT_EQ(s.cellMs.size(), 8u);
    EXPECT_GE(s.wallMs, 0.0);
}

TEST(JobsResolution, EnvAndFallbacks)
{
    unsetenv("BPSIM_JOBS");
    EXPECT_EQ(parallel::envJobs(), 0u);
    EXPECT_EQ(parallel::resolveJobs(5), 5u);
    EXPECT_EQ(parallel::resolveJobs(0), parallel::hardwareJobs());

    setenv("BPSIM_JOBS", "3", 1);
    EXPECT_EQ(parallel::envJobs(), 3u);
    EXPECT_EQ(parallel::resolveJobs(0), 3u);
    EXPECT_EQ(parallel::resolveJobs(7), 7u); // explicit request wins

    setenv("BPSIM_JOBS", "0", 1);
    EXPECT_EQ(parallel::envJobs(), 0u);
    setenv("BPSIM_JOBS", "banana", 1);
    EXPECT_EQ(parallel::envJobs(), 0u);
    unsetenv("BPSIM_JOBS");
    EXPECT_GE(parallel::hardwareJobs(), 1u);
}

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

/** A mixed timing sweep: two delay wrappers, a non-default core and
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
             return std::make_unique<SingleCycleFetchPredictor>(
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

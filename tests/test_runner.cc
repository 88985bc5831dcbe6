/** @file Tests for the experiment runners. */

#include "core/runner.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "core/factory.hh"
#include "obs/event_trace.hh"
#include "parallel/cell_pool.hh"
#include "predictors/static_pred.hh"
#include "robust/fault_injector.hh"
#include "robust/protection.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

TEST(AccuracyRunner, CountsOnlyConditionalBranches)
{
    TraceBuffer t;
    MicroOp alu;
    alu.cls = InstClass::IntAlu;
    MicroOp br;
    br.cls = InstClass::CondBranch;
    br.pc = 0x40;
    br.taken = true;
    MicroOp jmp;
    jmp.cls = InstClass::UncondBranch;
    jmp.taken = true;
    for (int i = 0; i < 10; ++i) {
        t.push(alu);
        t.push(br);
        t.push(jmp);
    }
    StaticPredictor never(false);
    const auto r = runAccuracy(never, t);
    EXPECT_EQ(r.branches, 10u);
    EXPECT_EQ(r.mispredictions, 10u);
    EXPECT_DOUBLE_EQ(r.percent(), 100.0);
}

TEST(SuiteTraces, BuildsAllTwelveOnce)
{
    SuiteTraces suite(20000, 1);
    ASSERT_EQ(suite.size(), 12u);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite.name(i), specint2000Names()[i]);
        EXPECT_EQ(suite.trace(i).size(), 20000u);
        EXPECT_GT(suite.trace(i).condBranches(), 0u);
    }
}

TEST(LazyDecode, AccuracyRunsNeverDecodeOps)
{
    // Accuracy replay reads the branch columns only: neither the
    // single-predictor runner nor the batched suite sweep may decode
    // the pc and extra columns, of a generated suite or of its
    // prefix views.
    const SuiteTraces suite(20000, 3, nullptr, TraceCache{});
    const SuiteTraces view = suite.prefix(7000);
    for (const SuiteTraces *s : {&suite, &view}) {
        for (std::size_t i = 0; i < s->size(); ++i) {
            auto pred = makePredictor(PredictorKind::Gshare, 4096);
            runAccuracy(*pred, s->trace(i));
        }
        std::vector<AccuracyCellConfig> cells;
        for (PredictorKind k : {PredictorKind::Gshare,
                                PredictorKind::Perceptron,
                                PredictorKind::Perceptron})
            for (std::size_t budget : {4096u, 16384u})
                cells.emplace_back(
                    [k, budget] { return makePredictor(k, budget); },
                    kindName(k), budget);
        obs::RunReport report;
        suiteAccuracyReportEnsemble(*s, cells, report);
    }
    for (const SuiteTraces *s : {&suite, &view})
        for (std::size_t i = 0; i < s->size(); ++i)
            EXPECT_FALSE(s->trace(i).opsMaterialized()) << s->name(i);
}

TEST(LazyDecode, OneTimingRunDecodesForEveryCopyAndPrefix)
{
    // The decode lives in the storage copies and views share: after
    // one runTiming, a copy, a prefix cut before the run and one cut
    // after it all read the very same pc and extra columns.
    const TraceBuffer trace =
        generateTrace(*makeWorkload("176.gcc"), 12000, 5);
    const TraceBuffer early = trace.prefix(5000);
    ASSERT_FALSE(trace.opsMaterialized());
    auto fp = makeFetchPredictor(PredictorKind::Gshare, 4096,
                                 DelayMode::Ideal);
    runTiming(CoreConfig{}, *fp, trace);
    ASSERT_TRUE(trace.opsMaterialized());

    const TraceBuffer copy = trace;
    const TraceBuffer late = trace.prefix(9000);
    const OpColumns cols = trace.opColumns();
    for (const TraceBuffer *t : {&copy, &early, &late}) {
        EXPECT_TRUE(t->opsMaterialized());
        EXPECT_EQ(t->opColumns().pc, cols.pc);
        EXPECT_EQ(t->opColumns().extra, cols.extra);
        EXPECT_EQ(t->opColumns().meta, cols.meta);
    }
}

TEST(SuiteAccuracy, MeanIsArithmeticOverWorkloads)
{
    SuiteTraces suite(15000, 2);
    std::vector<AccuracyCellConfig> cells = {
        {[] { return std::make_unique<StaticPredictor>(true); },
         "static", 0}};
    obs::RunReport report;
    suiteAccuracyReportEnsemble(suite, cells, report);
    const auto &res = cells[0].results;
    ASSERT_EQ(res.size(), 12u);
    ASSERT_EQ(report.rows.size(), 12u);
    double acc = 0;
    for (const auto &r : res)
        acc += r.percent();
    EXPECT_NEAR(cells[0].meanPercent, acc / 12.0, 1e-12);
}

TEST(SuiteTiming, HarmonicMeanAndPerWorkloadResults)
{
    SuiteTraces suite(15000, 3);
    std::vector<TimingCellConfig> cells = {
        {[] {
             return std::make_unique<FetchPredictor>(
                 DelayMode::Ideal, std::make_unique<StaticPredictor>(true));
         },
         "static", "ideal", 0, CoreConfig{}}};
    obs::RunReport report;
    suiteTimingReportEnsemble(suite, cells, report);
    const auto &res = cells[0].results;
    ASSERT_EQ(res.size(), 12u);
    std::vector<double> ipcs;
    for (const auto &r : res) {
        EXPECT_GT(r.ipc(), 0.0);
        ipcs.push_back(r.ipc());
    }
    EXPECT_NEAR(cells[0].harmonicMeanIpc, harmonicMean(ipcs), 1e-12);
    EXPECT_LE(cells[0].harmonicMeanIpc, arithmeticMean(ipcs));
}

void
expectSameSimResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredictions, b.mispredictions);
    EXPECT_EQ(a.overridingBubbleCycles, b.overridingBubbleCycles);
    EXPECT_EQ(a.btbMissPenaltyCycles, b.btbMissPenaltyCycles);
    EXPECT_EQ(a.mispredictWaitCycles, b.mispredictWaitCycles);
    EXPECT_EQ(a.icacheStallCycles, b.icacheStallCycles);
    EXPECT_EQ(a.frontEndStallCycles, b.frontEndStallCycles);
    EXPECT_EQ(a.overrideStallCycles, b.overrideStallCycles);
    EXPECT_EQ(a.btbStallCycles, b.btbStallCycles);
    EXPECT_EQ(a.robStallCycles, b.robStallCycles);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.squashedUops, b.squashedUops);
    EXPECT_EQ(a.l1iMissRate, b.l1iMissRate);
    EXPECT_EQ(a.l1dMissRate, b.l1dMissRate);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.btbHitRate, b.btbHitRate);
}

/** A timing sweep covering every factory form: plain make(), a
 *  non-default core (ROB 32, issue width 4), and per-workload
 *  protected and fault-injecting fetch predictors. */
std::vector<TimingCellConfig>
timingSweepConfigs()
{
    CoreConfig cfg;
    CoreConfig narrow;
    narrow.robEntries = 32;
    narrow.issueWidth = 4;
    std::vector<TimingCellConfig> cells;
    for (const std::size_t budget : {16u * 1024, 64u * 1024})
        cells.push_back({[budget] {
                             return makeFetchPredictor(
                                 PredictorKind::Perceptron, budget,
                                 DelayMode::Overriding);
                         },
                         "perceptron", "overriding", budget, cfg});
    cells.push_back({[] {
                         return makeFetchPredictor(
                             PredictorKind::GshareFast, 16 * 1024,
                             DelayMode::Ideal);
                     },
                     "gshare.fast", "ideal(rob32,w4)", 16 * 1024,
                     narrow});
    TimingCellConfig prot;
    prot.makeForWorkload = [](std::size_t w) {
        robust::ProtectionConfig pc;
        pc.policy = robust::ProtectionPolicy::SecdedCorrect;
        robust::FaultPlan plan;
        plan.upsetRatePerBit = 1e-3;
        plan.intervalBranches = 256;
        plan.seed = 7 + w;
        return makeProtectedFetchPredictor(PredictorKind::Gshare,
                                           16 * 1024,
                                           DelayMode::Overriding, pc,
                                           plan);
    };
    prot.name = "gshare.secded";
    prot.mode = "overriding";
    prot.budgetBytes = 16 * 1024;
    prot.cfg = cfg;
    cells.push_back(std::move(prot));
    TimingCellConfig fault;
    fault.makeForWorkload = [](std::size_t w) {
        robust::FaultPlan plan;
        plan.upsetRatePerBit = 1e-3;
        plan.intervalBranches = 256;
        plan.seed = 11 + w;
        return std::make_unique<FetchPredictor>(
            DelayMode::Ideal,
            std::make_unique<robust::FaultInjectingPredictor>(
                makePredictor(PredictorKind::GshareFast, 16 * 1024),
                plan));
    };
    fault.name = "gshare.fast.fault";
    fault.mode = "pipelined";
    fault.budgetBytes = 16 * 1024;
    fault.cfg = cfg;
    cells.push_back(std::move(fault));
    return cells;
}

TEST(SuiteTiming, EveryCellEqualsItsOwnRunTiming)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    std::vector<TimingCellConfig> cells = timingSweepConfigs();
    obs::RunReport report;
    const EnsembleStats stats =
        suiteTimingReportEnsemble(suite, cells, report);
    EXPECT_EQ(stats.serialCells, cells.size() * suite.size());
    EXPECT_EQ(stats.batchedCells, 0u);
    EXPECT_EQ(stats.groups, 0u);

    // Rows are config-major, workload-minor, and every cell is one
    // runTiming() on a fresh predictor — makeForWorkload winning
    // over make, with the workload's index.
    const std::vector<TimingCellConfig> ref = timingSweepConfigs();
    ASSERT_EQ(report.rows.size(), cells.size() * suite.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        std::vector<double> ipcs;
        for (std::size_t w = 0; w < suite.size(); ++w) {
            SCOPED_TRACE(cells[c].name + "/" + suite.name(w));
            auto pred = ref[c].makeForWorkload
                            ? ref[c].makeForWorkload(w)
                            : ref[c].make();
            const SimResult want =
                runTiming(ref[c].cfg, *pred, suite.trace(w));
            expectSameSimResult(cells[c].results[w], want);
            ipcs.push_back(want.ipc());
            const auto &row = report.rows[c * suite.size() + w];
            EXPECT_EQ(row.workload, suite.name(w));
            EXPECT_EQ(row.predictor, cells[c].name);
            EXPECT_EQ(row.mode, cells[c].mode);
            EXPECT_EQ(row.cycles, want.cycles);
        }
        EXPECT_EQ(cells[c].harmonicMeanIpc, harmonicMean(ipcs));
    }
}

TEST(SuiteTiming, TracerPathMatchesUntracedPath)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());

    std::vector<TimingCellConfig> plain = timingSweepConfigs();
    obs::RunReport plainReport;
    obs::MetricRegistry plainMetrics;
    parallel::CellPool pool(4);
    suiteTimingReportEnsemble(suite, plain, plainReport,
                              &plainMetrics, nullptr, &pool);

    // A tracer forces serial execution even with a pool passed; the
    // rows and metrics must not notice.
    std::vector<TimingCellConfig> traced = timingSweepConfigs();
    obs::RunReport tracedReport;
    obs::MetricRegistry tracedMetrics;
    obs::EventTracer tracer(1 << 12);
    parallel::CellPool tracedPool(4);
    suiteTimingReportEnsemble(suite, traced, tracedReport,
                              &tracedMetrics, &tracer, &tracedPool);

    EXPECT_GT(tracer.recorded(), 0u);
    EXPECT_EQ(tracedPool.stats().cellsCompleted, 0u);
    EXPECT_EQ(tracedReport.toJson().dump(2),
              plainReport.toJson().dump(2));
    EXPECT_EQ(tracedMetrics.toJson().dump(2),
              plainMetrics.toJson().dump(2));
}

TEST(TimingMemo, EveryKeyFieldSeparatesEntries)
{
    TimingMemo memo;
    int computed = 0;
    const auto compute = [&] {
        SimResult r;
        r.cycles = static_cast<Counter>(++computed);
        return r;
    };
    const TimingMemo::Key key{"176.gcc", 1000, 42, CoreConfig{},
                              Digest128{1, 2}};
    EXPECT_EQ(memo.time(key, compute).cycles, 1u);
    EXPECT_EQ(memo.time(key, compute).cycles, 1u);

    // Change one field at a time: each is a new core pass.
    std::vector<TimingMemo::Key> others(7, key);
    others[0].workload = "181.mcf";
    others[1].ops = 1001;
    others[2].seed = 43;
    others[3].cfg.frontEndDepth += 1;
    others[4].cfg.robEntries *= 2;
    others[5].column.hi = 3;
    others[6].column.lo = 0;
    for (std::size_t i = 0; i < others.size(); ++i)
        EXPECT_EQ(memo.time(others[i], compute).cycles, i + 2) << i;
    const TimingMemo::Stats st = memo.stats();
    EXPECT_EQ(st.requests, 9u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.joins, 0u);
}

TEST(TimingMemo, ConcurrentRequestsJoinOneComputation)
{
    TimingMemo memo;
    const TimingMemo::Key key{"176.gcc", 1000, 42, CoreConfig{},
                              Digest128{7, 7}};
    std::atomic<int> computed{0};
    std::atomic<bool> release{false};
    std::thread first([&] {
        memo.time(key, [&] {
            ++computed;
            while (!release)
                std::this_thread::yield();
            SimResult r;
            r.cycles = 5;
            return r;
        });
    });
    while (computed == 0)
        std::this_thread::yield();
    std::thread second([&] {
        EXPECT_EQ(memo.time(key, [&] {
                          ++computed;
                          return SimResult{};
                      }).cycles,
                  5u);
    });
    while (memo.stats().requests < 2)
        std::this_thread::yield();
    release = true;
    first.join();
    second.join();
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(memo.stats().joins, 1u);
}

TEST(TimingMemo, AFailedComputationIsNotKept)
{
    TimingMemo memo;
    const TimingMemo::Key key{"176.gcc", 1000, 42, CoreConfig{},
                              Digest128{9, 9}};
    EXPECT_THROW(memo.time(key,
                           []() -> SimResult {
                               throw std::runtime_error("livelock");
                           }),
                 std::runtime_error);
    SimResult ok;
    ok.cycles = 3;
    EXPECT_EQ(memo.time(key, [&] { return ok; }).cycles, 3u);
    EXPECT_EQ(memo.stats().hits, 0u);
}

TEST(SuiteTiming, MemoNeverSharesAcrossCoreConfigs)
{
    // Four configs with the same predictor, hence equal columns: the
    // Table 1 core, a deeper front end, a smaller ROB, and the Table 1
    // core again. Only the repeat may hit.
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    CoreConfig deeper;
    deeper.frontEndDepth = 25;
    CoreConfig smaller;
    smaller.robEntries = 32;
    const auto configs = [&] {
        std::vector<TimingCellConfig> cells;
        for (const CoreConfig &cfg :
             {CoreConfig{}, deeper, smaller, CoreConfig{}})
            cells.push_back({[] {
                                 return makeFetchPredictor(
                                     PredictorKind::Gshare, 16 * 1024,
                                     DelayMode::Overriding);
                             },
                             "gshare", "overriding", 16 * 1024, cfg});
        return cells;
    };
    std::vector<TimingCellConfig> cells = configs();
    obs::RunReport report;
    TimingMemo memo;
    parallel::CellPool pool(4);
    suiteTimingReportEnsemble(suite, cells, report, nullptr, nullptr,
                              &pool, memo);
    const TimingMemo::Stats st = memo.stats();
    EXPECT_EQ(st.requests, cells.size() * suite.size());
    EXPECT_EQ(st.hits + st.joins, suite.size());

    const std::vector<TimingCellConfig> ref = configs();
    for (std::size_t c = 0; c < cells.size(); ++c)
        for (std::size_t w = 0; w < suite.size(); ++w) {
            SCOPED_TRACE(std::to_string(c) + "/" + suite.name(w));
            auto pred = ref[c].make();
            expectSameSimResult(
                cells[c].results[w],
                runTiming(ref[c].cfg, *pred, suite.trace(w)));
        }
    for (std::size_t c : {1u, 2u})
        EXPECT_NE(cells[c].harmonicMeanIpc, cells[0].harmonicMeanIpc);
}

TEST(SuiteTiming, TracerBypassesTheMemo)
{
    // Two identical configs with a tracer: both are simulated (the
    // tracer sees every run's events) and the memo is never asked.
    const SuiteTraces suite(2000, 13, nullptr, TraceCache());
    const auto config = [] {
        return TimingCellConfig(
            [] {
                return makeFetchPredictor(PredictorKind::Gshare,
                                          16 * 1024,
                                          DelayMode::Overriding);
            },
            "gshare", "overriding", 16 * 1024, CoreConfig{});
    };
    std::vector<TimingCellConfig> once = {config()};
    std::vector<TimingCellConfig> twice = {config(), config()};
    obs::RunReport r1, r2;
    obs::EventTracer t1(1 << 10), t2(1 << 10);
    TimingMemo memo;
    suiteTimingReportEnsemble(suite, once, r1, nullptr, &t1, nullptr);
    suiteTimingReportEnsemble(suite, twice, r2, nullptr, &t2, nullptr,
                              memo);
    EXPECT_GT(t1.recorded(), 0u);
    EXPECT_EQ(t2.recorded(), 2 * t1.recorded());
    EXPECT_EQ(memo.stats().requests, 0u);
}

TEST(SuiteTiming, CallsWithoutAMemoEachTimeEveryCell)
{
    // The memo of a call that is not given one dies with the call:
    // nothing carries over, not even to a key that looks the same.
    // Plant, under every workload's real cache key, its trace with
    // each ALU op turned into a multiply. Branch streams, and so the
    // columns, are unchanged; timing is not. A memo that outlived the
    // first call would answer the second from the planted traces.
    const Counter ops = 3000;
    const std::uint64_t seed = 13;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "bpsim_test_memo_scope";
    std::filesystem::remove_all(dir);
    const TraceCache planted(dir.string());
    for (const std::string &name : specint2000Names()) {
        TraceBuffer slow;
        for (MicroOp op : generateTrace(*makeWorkload(name), ops, seed)) {
            if (op.cls == InstClass::IntAlu)
                op.cls = InstClass::IntMul;
            slow.push(op);
        }
        ASSERT_TRUE(planted.store(name, ops, seed, slow));
    }
    const SuiteTraces slowSuite(ops, seed, nullptr, planted);
    const SuiteTraces realSuite(ops, seed, nullptr, TraceCache());
    ASSERT_EQ(slowSuite.cacheHits(), slowSuite.size());

    const auto configs = [] {
        return std::vector<TimingCellConfig>{
            {[] {
                 return makeFetchPredictor(PredictorKind::Gshare,
                                           16 * 1024, DelayMode::Ideal);
             },
             "gshare", "ideal", 16 * 1024, CoreConfig{}}};
    };
    std::vector<TimingCellConfig> slow = configs(), real = configs();
    obs::RunReport r1, r2;
    suiteTimingReportEnsemble(slowSuite, slow, r1);
    suiteTimingReportEnsemble(realSuite, real, r2);
    for (std::size_t w = 0; w < realSuite.size(); ++w) {
        SCOPED_TRACE(realSuite.name(w));
        auto pred = configs()[0].make();
        expectSameSimResult(
            real[0].results[w],
            runTiming(CoreConfig{}, *pred, realSuite.trace(w)));
        EXPECT_GT(slow[0].results[w].cycles, real[0].results[w].cycles);
    }
    std::filesystem::remove_all(dir);
}

/**
 * Predicts taken and counts its live and peak instances, so a test
 * can see how many predictors a suite call holds at once. The
 * instance built with @c gated stalls its first prediction until
 * @c gateTarget instances have been built (or ten seconds pass): a
 * pool worker then sits on one early cell while the others run every
 * later one, so predictors that outlive their cell pile up.
 */
class CountedPredictor final : public DirectionPredictor
{
  public:
    inline static std::atomic<int> live{0};
    inline static std::atomic<int> peak{0};
    inline static std::atomic<int> built{0};
    inline static std::atomic<int> gateTarget{0};

    static void
    resetCounts()
    {
        live = 0;
        peak = 0;
        built = 0;
        gateTarget = 0;
    }

    explicit CountedPredictor(bool gated = false) : gated_(gated)
    {
        const int now = ++live;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        ++built;
    }
    ~CountedPredictor() override { --live; }

    std::string name() const override { return "counted"; }
    std::size_t storageBits() const override { return 1; }

    bool
    predict(Addr) override
    {
        if (gated_) {
            gated_ = false;
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::seconds(10);
            while (built < gateTarget &&
                   std::chrono::steady_clock::now() < until)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
        return true;
    }
    void update(Addr, bool) override {}

  private:
    bool gated_;
};

/**
 * Three configs whose workload-0 probe is a perceptron, so they form
 * one group, but which build counted predictors for every other
 * workload; the compute step replays such members one by one, holding
 * the whole group's predictors at once. Then two plain counted
 * configs, one cell each; @p gated stalls the first one's workload-0
 * cell.
 */
std::vector<AccuracyCellConfig>
countedAccuracyConfigs(bool gated)
{
    std::vector<AccuracyCellConfig> cells;
    for (const std::size_t budget : {4u * 1024, 8u * 1024, 16u * 1024}) {
        AccuracyCellConfig c;
        c.makeForWorkload =
            [budget](std::size_t w) -> std::unique_ptr<DirectionPredictor> {
            if (w == 0)
                return makePredictor(PredictorKind::Perceptron, budget);
            return std::make_unique<CountedPredictor>();
        };
        c.name = "group";
        c.budgetBytes = budget;
        cells.push_back(std::move(c));
    }
    for (int k = 0; k < 2; ++k) {
        AccuracyCellConfig c;
        c.makeForWorkload = [gated, k](std::size_t w) {
            return std::make_unique<CountedPredictor>(gated && k == 0 &&
                                                      w == 0);
        };
        c.name = "counted";
        cells.push_back(std::move(c));
    }
    return cells;
}

/** Two counted timing configs; @p gated stalls the first cell. */
std::vector<TimingCellConfig>
countedTimingConfigs(bool gated)
{
    std::vector<TimingCellConfig> cells;
    for (int k = 0; k < 2; ++k) {
        TimingCellConfig c;
        c.makeForWorkload = [gated, k](std::size_t w) {
            return std::make_unique<FetchPredictor>(
                DelayMode::Ideal,
                std::make_unique<CountedPredictor>(gated && k == 0 &&
                                                   w == 0));
        };
        c.name = "counted";
        c.mode = "ideal";
        cells.push_back(std::move(c));
    }
    return cells;
}

TEST(PredictorLifetime, SerialAccuracyHoldsOneCellAtATime)
{
    const SuiteTraces suite(3000, 13, nullptr, TraceCache());
    CountedPredictor::resetCounts();
    std::vector<AccuracyCellConfig> cells = countedAccuracyConfigs(false);
    obs::RunReport report;
    const EnsembleStats stats =
        suiteAccuracyReportEnsemble(suite, cells, report);
    ASSERT_EQ(stats.batchWidth, 3u);
    EXPECT_EQ(CountedPredictor::peak, 3);
    EXPECT_EQ(CountedPredictor::live, 0);
    EXPECT_EQ(report.rows.size(), cells.size() * suite.size());
}

TEST(PredictorLifetime, SerialTimingHoldsOneFetchPredictor)
{
    const SuiteTraces suite(3000, 13, nullptr, TraceCache());
    CountedPredictor::resetCounts();
    std::vector<TimingCellConfig> cells = countedTimingConfigs(false);
    obs::RunReport report;
    suiteTimingReportEnsemble(suite, cells, report);
    EXPECT_EQ(CountedPredictor::peak, 1);
    EXPECT_EQ(CountedPredictor::live, 0);
    EXPECT_EQ(CountedPredictor::built,
              static_cast<int>(cells.size() * suite.size()));
}

TEST(PredictorLifetime, PoolHoldsAtMostOneCellPerWorker)
{
    const SuiteTraces suite(3000, 13, nullptr, TraceCache());
    constexpr unsigned kJobs = 2;

    // Count what a serial call builds, then let the gated cell wait
    // for that many while the other worker runs the rest.
    CountedPredictor::resetCounts();
    std::vector<AccuracyCellConfig> acc = countedAccuracyConfigs(false);
    obs::RunReport accSerial;
    suiteAccuracyReportEnsemble(suite, acc, accSerial);
    const int accBuilt = CountedPredictor::built;

    CountedPredictor::resetCounts();
    CountedPredictor::gateTarget = accBuilt;
    acc = countedAccuracyConfigs(true);
    obs::RunReport accReport;
    parallel::CellPool accPool(kJobs);
    suiteAccuracyReportEnsemble(suite, acc, accReport, nullptr,
                                &accPool);
    EXPECT_EQ(CountedPredictor::built, accBuilt);
    EXPECT_LE(CountedPredictor::peak, static_cast<int>(kJobs * 3));
    EXPECT_EQ(CountedPredictor::live, 0);
    EXPECT_EQ(accReport.toJson().dump(), accSerial.toJson().dump());

    // A timing cell builds one predictor and there are no probes.
    std::vector<TimingCellConfig> timing = countedTimingConfigs(true);
    CountedPredictor::resetCounts();
    CountedPredictor::gateTarget =
        static_cast<int>(timing.size() * suite.size());
    obs::RunReport timingReport;
    parallel::CellPool timingPool(kJobs);
    suiteTimingReportEnsemble(suite, timing, timingReport, nullptr,
                              nullptr, &timingPool);
    EXPECT_EQ(CountedPredictor::built, CountedPredictor::gateTarget);
    EXPECT_LE(CountedPredictor::peak, static_cast<int>(kJobs));
    EXPECT_EQ(CountedPredictor::live, 0);
}

/** @p stats as suite sweeps publish them for @p workload, later
 *  writes of a name overwriting earlier ones, as in a registry. */
void
addPublished(std::map<std::string, double> &want,
             const std::vector<PredictorStat> &stats,
             const std::string &workload)
{
    for (const PredictorStat &s : stats) {
        std::string name = s.name;
        if (!name.empty() && name.back() == '}')
            name.insert(name.size() - 1, ",workload=" + workload);
        else
            name += "{workload=" + workload + "}";
        want[name] = s.value;
    }
}

/** Every expected gauge is published with its value, and no other
 *  `pred.*` gauge is. */
void
expectPublished(const obs::MetricRegistry &metrics,
                const std::map<std::string, double> &want)
{
    for (const auto &[name, value] : want) {
        const obs::GaugeMetric *g = metrics.findGauge(name);
        ASSERT_NE(g, nullptr) << name;
        EXPECT_EQ(g->value(), value) << name;
    }
    for (const std::string &name : metrics.names()) {
        if (name.rfind("pred.", 0) == 0) {
            EXPECT_EQ(want.count(name), 1u) << name;
        }
    }
}

TEST(PredictorLifetime, PublishedStatsEqualEachCellReplayedAlone)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    const auto accuracyConfigs = [] {
        std::vector<AccuracyCellConfig> cells;
        for (const auto &[kind, budget] :
             std::vector<std::pair<PredictorKind, std::size_t>>{
                 {PredictorKind::Gshare, 16 * 1024},
                 {PredictorKind::Perceptron, 16 * 1024},
                 {PredictorKind::MultiComponent, 64 * 1024},
                 {PredictorKind::Tournament, 16 * 1024},
                 {PredictorKind::Perceptron, 64 * 1024}})
            cells.push_back({[kind, budget] {
                                 return makePredictor(kind, budget);
                             },
                             kindName(kind), budget});
        AccuracyCellConfig fault;
        fault.makeForWorkload = [](std::size_t w) {
            robust::FaultPlan plan;
            plan.upsetRatePerBit = 1e-3;
            plan.intervalBranches = 256;
            plan.seed = 5 + w;
            return std::make_unique<robust::FaultInjectingPredictor>(
                makePredictor(PredictorKind::Gshare, 16 * 1024), plan);
        };
        fault.name = "gshare.fault";
        fault.budgetBytes = 16 * 1024;
        cells.push_back(std::move(fault));
        return cells;
    };

    std::vector<AccuracyCellConfig> acc = accuracyConfigs();
    obs::RunReport accReport;
    obs::MetricRegistry accMetrics;
    parallel::CellPool accPool(4);
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        suite, acc, accReport, &accMetrics, &accPool);
    EXPECT_EQ(stats.batchWidth, 2u);
    std::map<std::string, double> want;
    const std::vector<AccuracyCellConfig> accRef = accuracyConfigs();
    for (const AccuracyCellConfig &c : accRef)
        for (std::size_t w = 0; w < suite.size(); ++w) {
            auto pred = c.makeForWorkload ? c.makeForWorkload(w)
                                          : c.make();
            runAccuracy(*pred, suite.trace(w));
            addPublished(want, pred->describeStats(), suite.name(w));
        }
    EXPECT_FALSE(want.empty());
    expectPublished(accMetrics, want);

    std::vector<TimingCellConfig> timing = timingSweepConfigs();
    obs::RunReport timingReport;
    obs::MetricRegistry timingMetrics;
    parallel::CellPool timingPool(4);
    suiteTimingReportEnsemble(suite, timing, timingReport,
                              &timingMetrics, nullptr, &timingPool);
    want.clear();
    for (const TimingCellConfig &c : timingSweepConfigs())
        for (std::size_t w = 0; w < suite.size(); ++w) {
            auto pred = c.makeForWorkload ? c.makeForWorkload(w)
                                          : c.make();
            runTiming(c.cfg, *pred, suite.trace(w));
            addPublished(want, pred->describeStats(), suite.name(w));
        }
    EXPECT_FALSE(want.empty());
    expectPublished(timingMetrics, want);
}

TEST(BenchOps, EnvironmentOverride)
{
    unsetenv("BPSIM_OPS_PER_WORKLOAD");
    EXPECT_EQ(benchOpsPerWorkload(1234), 1234u);
    setenv("BPSIM_OPS_PER_WORKLOAD", "777", 1);
    EXPECT_EQ(benchOpsPerWorkload(1234), 777u);
    setenv("BPSIM_OPS_PER_WORKLOAD", "not-a-number", 1);
    EXPECT_EQ(benchOpsPerWorkload(1234), 1234u);
    // A partial number is rejected whole, not read as its prefix.
    for (const char *bad : {"20k", "1e6", "", "0", "-5"}) {
        setenv("BPSIM_OPS_PER_WORKLOAD", bad, 1);
        EXPECT_EQ(benchOpsPerWorkload(1234), 1234u) << "'" << bad << "'";
    }
    unsetenv("BPSIM_OPS_PER_WORKLOAD");
}

} // namespace
} // namespace bpsim

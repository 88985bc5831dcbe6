/**
 * @file
 * Golden equivalence of the perceptron group kernel against the
 * serial path: a group of one perceptron per standard budget
 * replayed in one pass must produce identical counts,
 * describeStats() gauges and visitState() images to running each
 * member alone, and a group the kernel refuses must come back
 * untouched. At suite level, suiteAccuracyReportEnsemble's RunReport
 * and metrics must equal one single-config sweep per config for
 * mixed-wrapper and per-workload-factory config lists, with or
 * without a pool, and when the kernel refuses a group.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ensemble.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "parallel/cell_pool.hh"
#include "robust/fault_injector.hh"
#include "robust/state_visitor.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_cache.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

/** Flattens every visited field into one comparable dump. */
struct StateDump : robust::StateVisitor
{
    struct Field
    {
        std::string name;
        std::size_t count;
        unsigned bits;
        std::vector<std::uint64_t> values;

        bool
        operator==(const Field &o) const
        {
            return name == o.name && count == o.count &&
                   bits == o.bits && values == o.values;
        }
    };
    std::vector<Field> fields;

    void
    visit(const robust::StateField &f) override
    {
        Field out{f.name, f.count, f.bits, {}};
        out.values.reserve(f.count);
        for (std::size_t i = 0; i < f.count; ++i)
            out.values.push_back(robust::load(f, i));
        fields.push_back(std::move(out));
    }
};

TraceBuffer
suiteTrace()
{
    const auto w = makeWorkload(specint2000Names().front());
    return generateTrace(*w, 40000, 9);
}

void
expectSameState(DirectionPredictor &a, DirectionPredictor &b)
{
    StateDump da;
    StateDump db;
    a.visitState(da);
    b.visitState(db);
    ASSERT_EQ(da.fields.size(), db.fields.size());
    for (std::size_t i = 0; i < da.fields.size(); ++i)
        ASSERT_TRUE(da.fields[i] == db.fields[i])
            << "field " << da.fields[i].name;

    const auto sa = a.describeStats();
    const auto sb = b.describeStats();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i].name, sb[i].name);
        ASSERT_EQ(sa[i].value, sb[i].value);
    }
}

std::unique_ptr<PerceptronPredictor>
makePerceptron(std::size_t budget)
{
    return std::unique_ptr<PerceptronPredictor>(
        static_cast<PerceptronPredictor *>(
            makePredictor(PredictorKind::Perceptron, budget).release()));
}

TEST(PerceptronBatch, MatchesSerialAtEveryBudget)
{
    const TraceBuffer trace = suiteTrace();
    // One member per standard budget: the group a figure sweep forms,
    // with and without a local component.
    std::vector<std::unique_ptr<PerceptronPredictor>> batched;
    std::vector<std::unique_ptr<PerceptronPredictor>> serial;
    std::vector<PerceptronPredictor *> members;
    for (const std::size_t budget : standardBudgets()) {
        batched.push_back(makePerceptron(budget));
        serial.push_back(makePerceptron(budget));
        members.push_back(batched.back().get());
    }

    const auto rb = runPerceptronEnsemble(members, trace);
    ASSERT_TRUE(rb.has_value());
    ASSERT_EQ(rb->size(), members.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
        SCOPED_TRACE("budget " + std::to_string(standardBudgets()[j]));
        const AccuracyResult rs = runAccuracy(*serial[j], trace);
        ASSERT_EQ((*rb)[j].branches, rs.branches);
        ASSERT_EQ((*rb)[j].mispredictions, rs.mispredictions);
        expectSameState(*batched[j], *serial[j]);
    }
}

TEST(PerceptronBatch, RefusesGroupsItCannotShareHistoryAcross)
{
    const TraceBuffer trace = suiteTrace();
    const TraceBuffer warmup = generateTrace(
        *makeWorkload(specint2000Names().back()), 2000, 3);

    // A member that has already seen branches.
    auto fresh = makePerceptron(16 * 1024);
    auto warm = makePerceptron(16 * 1024);
    runAccuracy(*warm, warmup);
    auto warmRef = makePerceptron(16 * 1024);
    runAccuracy(*warmRef, warmup);
    EXPECT_FALSE(
        runPerceptronEnsemble({fresh.get(), warm.get()}, trace));
    expectSameState(*warm, *warmRef);
    expectSameState(*fresh, *makePerceptron(16 * 1024));

    // Members whose local-history tables differ in size.
    PerceptronPredictor a(64, 24, 10, 2048);
    PerceptronPredictor b(64, 24, 10, 1024);
    EXPECT_FALSE(runPerceptronEnsemble({&a, &b}, trace));
}

/** A config list mixing every grouping case: a perceptron group of
 *  two, bare / protected / fault-injected gshare siblings, a wrapped
 *  perceptron (not bare, so its own cell) and a lone bimodal. */
std::vector<AccuracyCellConfig>
mixedConfigs()
{
    robust::ProtectionConfig prot;
    prot.policy = robust::ProtectionPolicy::SecdedCorrect;
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-4;
    plan.intervalBranches = 256;

    std::vector<AccuracyCellConfig> configs;
    const auto add = [&configs](std::string name, std::size_t budget,
                                auto make) {
        AccuracyCellConfig c;
        c.make = std::move(make);
        c.name = std::move(name);
        c.budgetBytes = budget;
        configs.push_back(std::move(c));
    };
    add("gshare", 16 * 1024,
        [] { return makePredictor(PredictorKind::Gshare, 16 * 1024); });
    for (const std::size_t budget : {2048u, 16384u})
        add("perceptron", budget, [budget] {
            return makePredictor(PredictorKind::Perceptron, budget);
        });
    add("gshare.secded", 16 * 1024, [prot, plan] {
        return makeProtectedPredictor(PredictorKind::Gshare, 16 * 1024,
                                      prot, plan);
    });
    add("gshare.fault", 16 * 1024, [plan] {
        return std::make_unique<robust::FaultInjectingPredictor>(
            makePredictor(PredictorKind::Gshare, 16 * 1024), plan);
    });
    add("perceptron.fault", 8 * 1024, [plan] {
        return std::make_unique<robust::FaultInjectingPredictor>(
            makePredictor(PredictorKind::Perceptron, 8 * 1024), plan);
    });
    add("bimodal", 4096,
        [] { return makePredictor(PredictorKind::Bimodal, 4096); });
    return configs;
}

/** Per-workload factories, as the soft-error studies use them: each
 *  cell's fault plan is seeded by its workload index, and the
 *  perceptrons are bare, so they still group — bar one that is bare
 *  only at workload 0, so it groups by its probe and then replays
 *  alone everywhere else. */
std::vector<AccuracyCellConfig>
perWorkloadConfigs()
{
    std::vector<AccuracyCellConfig> configs;
    for (const std::size_t budget : {4096u, 16384u}) {
        AccuracyCellConfig c;
        c.makeForWorkload = [budget](std::size_t w) {
            robust::FaultPlan plan;
            plan.upsetRatePerBit = 1e-4;
            plan.intervalBranches = 512;
            plan.seed = 1000 + 17 * w;
            return std::unique_ptr<DirectionPredictor>(
                std::make_unique<robust::FaultInjectingPredictor>(
                    makePredictor(PredictorKind::Gshare, budget),
                    plan));
        };
        c.name = "gshare.fault";
        c.budgetBytes = budget;
        configs.push_back(std::move(c));
    }
    for (const std::size_t budget : {4096u, 32768u}) {
        AccuracyCellConfig c;
        c.makeForWorkload = [budget](std::size_t) {
            return makePredictor(PredictorKind::Perceptron, budget);
        };
        c.name = "perceptron";
        c.budgetBytes = budget;
        configs.push_back(std::move(c));
    }
    AccuracyCellConfig odd;
    odd.makeForWorkload = [](std::size_t w) {
        auto p = makePredictor(PredictorKind::Perceptron, 8192);
        if (w == 0)
            return p;
        return std::unique_ptr<DirectionPredictor>(
            std::make_unique<robust::FaultInjectingPredictor>(
                std::move(p), robust::FaultPlan{}));
    };
    odd.name = "perceptron.odd";
    odd.budgetBytes = 8192;
    configs.push_back(std::move(odd));
    return configs;
}

/** Metrics dump with the grouping gauges removed — the one allowed
 *  difference from the per-config reference. */
std::string
metricsSansEnsemble(const obs::MetricRegistry &metrics)
{
    std::istringstream in(metrics.toJson().dump(2));
    std::string out;
    std::string line;
    while (std::getline(in, line))
        if (line.find("core.ensemble.") == std::string::npos)
            out += line + '\n';
    return out;
}

struct SweepOutput
{
    explicit SweepOutput(std::vector<AccuracyCellConfig> c)
        : configs(std::move(c))
    {}

    std::vector<AccuracyCellConfig> configs;
    obs::RunReport report;
    obs::MetricRegistry metrics;
    EnsembleStats stats;
};

void
sweep(const SuiteTraces &suite, SweepOutput &out,
      parallel::CellPool *pool = nullptr)
{
    out.stats = suiteAccuracyReportEnsemble(
        suite, out.configs, out.report, &out.metrics, pool);
}

/** Reference: one single-config suite sweep per config, in list
 *  order (a lone config never batches). */
void
sweepOneByOne(const SuiteTraces &suite, SweepOutput &out)
{
    for (AccuracyCellConfig &c : out.configs) {
        std::vector<AccuracyCellConfig> one = {c};
        const EnsembleStats stats = suiteAccuracyReportEnsemble(
            suite, one, out.report, &out.metrics);
        EXPECT_EQ(stats.batchedCells, 0u);
        c = std::move(one[0]);
    }
}

void
expectSameOutput(const SweepOutput &a, const SweepOutput &b)
{
    EXPECT_EQ(a.report.toJson().dump(2), b.report.toJson().dump(2));
    EXPECT_EQ(metricsSansEnsemble(a.metrics),
              metricsSansEnsemble(b.metrics));
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (std::size_t i = 0; i < a.configs.size(); ++i) {
        EXPECT_EQ(a.configs[i].meanPercent, b.configs[i].meanPercent);
        ASSERT_EQ(a.configs[i].results.size(),
                  b.configs[i].results.size());
        for (std::size_t w = 0; w < a.configs[i].results.size(); ++w)
            EXPECT_EQ(a.configs[i].results[w].mispredictions,
                      b.configs[i].results[w].mispredictions);
    }
}

TEST(EnsembleSuite, MixedWrapperReportMatchesPerConfigSweeps)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    SweepOutput grouped(mixedConfigs());
    sweep(suite, grouped);
    SweepOutput ref(mixedConfigs());
    sweepOneByOne(suite, ref);
    expectSameOutput(grouped, ref);

    // The two bare perceptrons batch; the other five run serially.
    EXPECT_EQ(grouped.stats.groups, 1u);
    EXPECT_EQ(grouped.stats.batchWidth, 2u);
    EXPECT_EQ(grouped.stats.batchedCells, 2u * suite.size());
    EXPECT_EQ(grouped.stats.serialCells, 5u * suite.size());
    EXPECT_EQ(grouped.metrics.gauge("core.ensemble.batched_cells")
                  .value(),
              static_cast<double>(grouped.stats.batchedCells));
}

TEST(EnsembleSuite, PerWorkloadFactoryMatchesPerConfigSweeps)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    SweepOutput grouped(perWorkloadConfigs());
    sweep(suite, grouped);
    SweepOutput ref(perWorkloadConfigs());
    sweepOneByOne(suite, ref);
    expectSameOutput(grouped, ref);
    EXPECT_EQ(grouped.stats.batchedCells, 3u * suite.size());
}

TEST(EnsembleSuite, RefusedGroupFallsBackToSerialReplay)
{
    // Perceptrons that have already trained are bare, so they group,
    // but the kernel refuses them and each member replays alone.
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    const auto configs = [] {
        std::vector<AccuracyCellConfig> v;
        for (const std::size_t budget : {2048u, 16384u}) {
            AccuracyCellConfig c;
            c.make = [budget] {
                auto p =
                    makePredictor(PredictorKind::Perceptron, budget);
                p->update(0x400100, true);
                return p;
            };
            c.name = "perceptron.warm";
            c.budgetBytes = budget;
            v.push_back(std::move(c));
        }
        return v;
    };
    SweepOutput grouped(configs());
    sweep(suite, grouped);
    SweepOutput ref(configs());
    sweepOneByOne(suite, ref);
    expectSameOutput(grouped, ref);
}

TEST(EnsembleSuite, PooledMatchesSerial)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    SweepOutput serial(mixedConfigs());
    sweep(suite, serial);
    parallel::CellPool pool(3);
    SweepOutput pooled(mixedConfigs());
    sweep(suite, pooled, &pool);
    expectSameOutput(pooled, serial);
    EXPECT_EQ(pooled.metrics.toJson().dump(2),
              serial.metrics.toJson().dump(2));
    // One cell per (group, workload): the perceptron group plus five
    // lone configs.
    EXPECT_EQ(pool.stats().cellsCompleted, 6u * suite.size());
}

} // namespace
} // namespace bpsim

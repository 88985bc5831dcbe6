/**
 * @file
 * Offline golden gate for the timing sweeps: every report row of the
 * eight artifacts that run timing cells, recomputed through the
 * artifact registry and compared against tests/golden/timing_rows.tsv.
 *
 * Each TSV line is `<section>\t<key>\t<fnv1a-64 hex>`:
 *  - `<artifact>\t<row key>` digests the row's full JSON (accuracy
 *    and timing rows alike, in report order);
 *  - `<artifact>\t#table` digests the printed table (harmonic means);
 *  - `<artifact>\t#sim.core` digests the `sim.core.*` metrics, whose
 *    per-workload sums carry the counters rows do not
 *    (overriding-bubble cycles);
 *  - `runner\t<cell>` digests every SimResult field, miss rates
 *    included, of a fixed timing config list run directly through
 *    suiteTimingReportEnsemble (rows expose only part of a
 *    SimResult).
 *
 * A second gate, tests/golden/core_shapes.tsv, digests every
 * SimResult field of a core-shape grid: ROB {16, 32, 512, 1024} x
 * issue width {4, 8}, then Table 1 cores with one odd field (ROB 100,
 * width 1 or 3, a one-entry fetch buffer, zero-cycle multiply, no
 * front-end stages), gshare overriding and perceptron ideal at
 * 64 KB, on every stand-in. The artifacts above only ever run the
 * Table 1 core (ROB 128, width 8), so ROB wrap-around, partial
 * bitmap words and a short issue window are checked here. Its
 * `core_events` lines digest the full EventTracer stream of two of
 * those cells, so the traced path is pinned too.
 *
 * A third gate, tests/golden/accuracy_rows.tsv, covers every other
 * registry artifact (the accuracy-only sweeps) the same way: each
 * row's JSON, the `#table`, and an `#metrics` line digesting every
 * metric but the core.ensemble.* grouping gauges.
 *
 * A fourth gate, tests/golden/protection_rows.tsv, pins the
 * protection layer cell by cell: protected gshare, perceptron,
 * multicomponent and 2bc-gskew at 64 KB under every policy at two
 * upset rates, on every stand-in, each line digesting the accuracy
 * result, every ProtectionStats counter, the injector's tallies and
 * the predictor's final visitState() contents.
 *
 * Each test writes what it computed to `<golden name>.actual.tsv` in
 * its working directory. Refresh a golden only from a tree whose
 * numbers are known good, by copying that file over it.
 */

#include "artifact_registry.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/event_trace.hh"
#include "parallel/cell_pool.hh"
#include "robust/fault_injector.hh"
#include "robust/protection.hh"
#include "trace/shared_trace_pool.hh"

namespace bpsim {
namespace {

constexpr Counter kOps = 20000;

/** The artifacts whose bodies call suiteTimingReportEnsemble. */
const std::vector<std::string> kTimingArtifacts = {
    "fig2_ideal_vs_overriding", "fig7_ipc_budget",
    "fig8_per_benchmark_ipc",   "ablation_delay_hiding",
    "ablation_update_delay",    "study_pipeline_depth",
    "study_protection_surface", "study_soft_error",
};

/** Every other registry artifact: accuracy sweeps only. */
std::vector<std::string>
accuracyArtifacts()
{
    std::vector<std::string> names;
    for (const ArtifactDef &def : artifactRegistry())
        if (std::find(kTimingArtifacts.begin(), kTimingArtifacts.end(),
                      def.spec.name) == kTimingArtifacts.end())
            names.push_back(def.spec.name);
    return names;
}

std::string
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
line(const std::string &section, const std::string &key,
     const std::string &payload)
{
    return section + "\t" + key + "\t" + digest(payload);
}

std::string
simCoreMetrics(const obs::MetricRegistry &reg)
{
    std::ostringstream os;
    os.precision(17);
    for (const std::string &name : reg.names()) {
        if (name.rfind("sim.core.", 0) != 0)
            continue;
        os << name << '=';
        if (const auto *c = reg.findCounter(name))
            os << c->value();
        else if (const auto *g = reg.findGauge(name))
            os << g->value();
        os << '\n';
    }
    return os.str();
}

/** Every metric except the core.ensemble.* gauges, which describe
 *  how cells were grouped rather than what they computed (a
 *  BufferedSweepContext publishes no host times). The predictors'
 *  describeStats() gauges catch final-state drift. */
std::string
accuracyMetrics(const obs::MetricRegistry &reg)
{
    std::ostringstream os;
    os.precision(17);
    for (const std::string &name : reg.names()) {
        if (name.rfind("core.ensemble.", 0) == 0)
            continue;
        os << name << '=';
        if (const auto *c = reg.findCounter(name))
            os << c->value();
        else if (const auto *g = reg.findGauge(name))
            os << g->value();
        else if (const auto *h = reg.findHistogram(name))
            os << h->total() << '/' << h->sum();
        os << '\n';
    }
    return os.str();
}

std::string
simResultFields(const SimResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.cycles << ',' << r.instructions << ',' << r.condBranches
       << ',' << r.mispredictions << ',' << r.overridingBubbleCycles
       << ',' << r.btbMissPenaltyCycles << ','
       << r.mispredictWaitCycles << ',' << r.icacheStallCycles << ','
       << r.frontEndStallCycles << ',' << r.overrideStallCycles << ','
       << r.btbStallCycles << ',' << r.robStallCycles << ','
       << r.flushes << ',' << r.squashedUops << ',' << r.l1iMissRate
       << ',' << r.l1dMissRate << ',' << r.l2MissRate << ','
       << r.btbHitRate;
    return os.str();
}

/** Digest every row and the table of each artifact in @p names, plus
 *  the metrics @p metricsOf selects, as `<artifact>\t#<metric_key>`. */
void
artifactLines(const std::vector<std::string> &names,
              const std::string &metric_key,
              std::string (*metricsOf)(const obs::MetricRegistry &),
              std::vector<std::string> &out)
{
    for (const std::string &name : names) {
        const ArtifactDef *def = findArtifact(name);
        ASSERT_NE(def, nullptr) << name;
        parallel::CellPool pool(4);
        BufferedSweepContext ctx(def->spec, &pool,
                                 /*want_report=*/true);
        ASSERT_EQ(def->fn(def->spec, ctx), 0) << name;
        // table2 replays no suite traces: a table and metrics only.
        if (def->spec.defaultOps > 0) {
            ASSERT_FALSE(ctx.report().rows.empty()) << name;
        }
        for (const auto &row : ctx.report().rows)
            out.push_back(line(name, row.key(), row.toJson().dump()));
        out.push_back(line(name, "#table", ctx.output()));
        out.push_back(
            line(name, "#" + metric_key, metricsOf(ctx.metrics())));
    }
}

/** Every delay wrapper plus the per-workload protected and
 *  fault-injecting forms the studies use. */
std::vector<TimingCellConfig>
runnerConfigs()
{
    const CoreConfig cfg;
    const std::size_t budget = 64 * 1024;
    std::vector<TimingCellConfig> cells;
    for (DelayMode mode :
         {DelayMode::Ideal, DelayMode::Overriding, DelayMode::Stall,
          DelayMode::DualPath, DelayMode::Cascading})
        for (PredictorKind k : largePredictorKinds())
            cells.push_back(
                {[k, budget, mode] {
                     return makeFetchPredictor(k, budget, mode);
                 },
                 kindName(k), delayModeName(mode), budget, cfg});
    TimingCellConfig prot;
    prot.makeForWorkload = [budget](std::size_t wi) {
        robust::FaultPlan plan;
        plan.upsetRatePerBit = 1e-3;
        plan.intervalBranches = 256;
        plan.seed = 1000 + wi;
        robust::ProtectionConfig pc;
        pc.policy = robust::ProtectionPolicy::SecdedCorrect;
        return std::unique_ptr<FetchPredictor>(
            makeProtectedFetchPredictor(PredictorKind::Gshare, budget,
                                        DelayMode::Overriding, pc,
                                        plan));
    };
    prot.name = "gshare+secded";
    prot.mode = delayModeName(DelayMode::Overriding);
    prot.budgetBytes = budget;
    prot.cfg = cfg;
    cells.push_back(std::move(prot));
    TimingCellConfig faulty;
    faulty.makeForWorkload = [budget](std::size_t wi) {
        robust::FaultPlan plan;
        plan.upsetRatePerBit = 1e-3;
        plan.intervalBranches = 256;
        plan.seed = 2000 + wi;
        return std::unique_ptr<FetchPredictor>(
            std::make_unique<robust::FaultInjectingFetchPredictor>(
                makeFetchPredictor(PredictorKind::GshareFast, budget,
                                   DelayMode::Pipelined),
                plan));
    };
    faulty.name = "gshare.fast+upsets";
    faulty.mode = delayModeName(DelayMode::Pipelined);
    faulty.budgetBytes = budget;
    faulty.cfg = cfg;
    cells.push_back(std::move(faulty));
    return cells;
}

/** Run @p cells over the suite and digest every SimResult field, one
 *  `<section>\t<workload>/<name>/<mode>` line per cell. */
void
suiteLines(const std::string &section,
           std::vector<TimingCellConfig> cells,
           std::vector<std::string> &out)
{
    const SuiteTraces suite(kOps, 42);
    parallel::CellPool pool(4);
    obs::RunReport report;
    suiteTimingReportEnsemble(suite, cells, report, nullptr, nullptr,
                              &pool);
    for (const TimingCellConfig &c : cells) {
        ASSERT_EQ(c.results.size(), suite.size()) << c.name;
        for (std::size_t w = 0; w < suite.size(); ++w)
            out.push_back(line(section,
                               suite.name(w) + "/" + c.name + "/" +
                                   c.mode,
                               simResultFields(c.results[w])));
    }
}

/** The core shapes beyond the ROB x width grid, each a Table 1 core
 *  with one field changed: a ROB that is not a multiple of 64 (a
 *  partial last bitmap word), issue widths 1 and 3, a one-entry fetch
 *  buffer, a zero-cycle multiply and no front-end stages. */
std::vector<std::pair<std::string, CoreConfig>>
oddCoreShapes()
{
    std::vector<std::pair<std::string, CoreConfig>> shapes;
    const auto add = [&](const std::string &name, auto edit) {
        CoreConfig cfg;
        edit(cfg);
        shapes.emplace_back(name, cfg);
    };
    add("rob100", [](CoreConfig &c) { c.robEntries = 100; });
    add("w1", [](CoreConfig &c) { c.issueWidth = 1; });
    add("w3", [](CoreConfig &c) { c.issueWidth = 3; });
    add("fb1", [](CoreConfig &c) { c.fetchBufferEntries = 1; });
    add("mul0", [](CoreConfig &c) { c.mulCycles = 0; });
    add("fe0", [](CoreConfig &c) { c.frontEndDepth = 0; });
    return shapes;
}

/** The core-shape grid: each (ROB, issue width) core, then each odd
 *  shape, under gshare overriding and perceptron ideal at 64 KB. */
std::vector<TimingCellConfig>
coreShapeConfigs()
{
    const std::size_t budget = 64 * 1024;
    std::vector<std::pair<std::string, CoreConfig>> shapes;
    for (std::size_t rob : {16u, 32u, 512u, 1024u})
        for (unsigned width : {4u, 8u}) {
            CoreConfig cfg;
            cfg.robEntries = rob;
            cfg.issueWidth = width;
            shapes.emplace_back("rob" + std::to_string(rob) + "/w" +
                                    std::to_string(width),
                                cfg);
        }
    for (const auto &shape : oddCoreShapes())
        shapes.push_back(shape);
    std::vector<TimingCellConfig> cells;
    for (const auto &[shape, cfg] : shapes)
        for (const auto &[k, mode] :
             {std::pair{PredictorKind::Gshare, DelayMode::Overriding},
              std::pair{PredictorKind::Perceptron, DelayMode::Ideal}})
            cells.push_back(
                {[k, mode, budget] {
                     return makeFetchPredictor(k, budget, mode);
                 },
                 kindName(k), delayModeName(mode) + "/" + shape, budget,
                 cfg});
    return cells;
}

/** Digest the whole event stream an attached EventTracer records for
 *  two cells on every stand-in, one `core_events\t<workload>/<cell>`
 *  line each: gshare overriding on the 3-wide core and perceptron
 *  ideal on the ROB-100 core. */
void
tracerLines(std::vector<std::string> &out)
{
    const SuiteTraces suite(kOps, 42);
    const auto shapes = oddCoreShapes();
    const auto shape = [&](const std::string &name) {
        for (const auto &s : shapes)
            if (s.first == name)
                return s.second;
        ADD_FAILURE() << "no core shape " << name;
        return CoreConfig{};
    };
    const struct
    {
        PredictorKind kind;
        DelayMode mode;
        std::string shape;
    } cells[] = {{PredictorKind::Gshare, DelayMode::Overriding, "w3"},
                 {PredictorKind::Perceptron, DelayMode::Ideal, "rob100"}};
    for (const auto &c : cells)
        for (std::size_t w = 0; w < suite.size(); ++w) {
            auto pred = makeFetchPredictor(c.kind, 64 * 1024, c.mode);
            obs::EventTracer tracer(std::size_t{1} << 18);
            const SimResult r =
                runTiming(shape(c.shape), *pred, suite.trace(w), &tracer);
            ASSERT_EQ(tracer.dropped(), 0u);
            std::ostringstream os;
            os << simResultFields(r) << ';' << tracer.recorded() << ';';
            for (std::size_t i = 0; i < tracer.size(); ++i) {
                const obs::TraceEvent &e = tracer.at(i);
                os << e.cycle << ',' << static_cast<unsigned>(e.type)
                   << ',' << e.pc << ',' << e.arg << '\n';
            }
            out.push_back(line("core_events",
                               suite.name(w) + "/" + kindName(c.kind) +
                                   "/" + delayModeName(c.mode) + "/" +
                                   c.shape,
                               os.str()));
        }
}

/** Digests every field a visitor sees: name, shape and each
 *  element's raw bits. */
class StateDigest : public robust::StateVisitor
{
  public:
    void
    visit(const robust::StateField &field) override
    {
        os_ << field.name << ':' << field.count << 'x' << field.bits
            << '=';
        for (std::size_t e = 0; e < field.count; ++e)
            os_ << field.load(e) << ',';
        os_ << '\n';
    }

    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

/** The protected accuracy cells: each kind under each policy and
 *  upset rate (perfbench's intervalBranches, wordBits and scrub
 *  interval), one `protection\t<workload>/<kind>@u=<rate>@p=<policy>`
 *  line per stand-in. */
void
protectionLines(std::vector<std::string> &out)
{
    const SuiteTraces suite(kOps, 42);
    const std::vector<PredictorKind> kinds = {
        PredictorKind::Gshare, PredictorKind::Perceptron,
        PredictorKind::MultiComponent, PredictorKind::Gskew};
    const std::vector<std::pair<double, std::string>> rates = {
        {1e-4, "1e-4"}, {1e-3, "1e-3"}};
    const auto &policies = robust::allProtectionPolicies();
    const std::size_t per_kind = rates.size() * policies.size();
    const std::size_t per_rate = policies.size();
    const std::size_t cells = kinds.size() * per_kind * suite.size();

    std::vector<std::string> lines(cells);
    parallel::CellPool pool(4);
    pool.run(cells, [&](std::size_t i) {
        const std::size_t w = i % suite.size();
        const std::size_t config = i / suite.size();
        const std::size_t ki = config / per_kind;
        const std::size_t ri = config % per_kind / per_rate;
        const std::size_t pi = config % per_rate;

        robust::FaultPlan plan;
        plan.upsetRatePerBit = rates[ri].first;
        plan.intervalBranches = 256;
        plan.seed = 3000 + ki * 1000 + ri * 100 + pi * 20 + w;
        robust::ProtectionConfig pc;
        pc.policy = policies[pi];
        pc.wordBits = 64;
        pc.scrubIntervalBranches = 2048;
        auto pred = makeProtectedPredictor(kinds[ki], 64 * 1024, pc, plan);
        const AccuracyResult r = runAccuracy(*pred, suite.trace(w));
        const robust::ProtectionStats &s = pred->protectionStats();
        const robust::FaultInjector &inj = pred->injector();
        StateDigest state;
        pred->visitState(state);

        std::ostringstream os;
        os << r.branches << ',' << r.mispredictions << ';'
           << s.injectedFlips << ',' << s.correctedBits << ','
           << s.invalidatedWords << ',' << s.invalidatedElements << ','
           << s.undetectedWords << ',' << s.launderedElements << ','
           << s.repairEvents << ',' << s.scrubEvents << ';'
           << inj.flips() << ',' << inj.events() << ','
           << inj.bitsVisited() << ';' << state.str();
        lines[i] = line("protection",
                        suite.name(w) + "/" + kindName(kinds[ki]) +
                            "@u=" + rates[ri].second + "@p=" +
                            robust::protectionPolicyName(policies[pi]),
                        os.str());
    });
    out.insert(out.end(), lines.begin(), lines.end());
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    return lines;
}

void
pinEnvironment()
{
    ASSERT_EQ(0, setenv("BPSIM_OPS_PER_WORKLOAD",
                        std::to_string(kOps).c_str(), 1));
    ASSERT_EQ(0, unsetenv("BPSIM_TRACE_CACHE"));
    ASSERT_EQ(0, unsetenv("BPSIM_JOBS"));
    SharedTracePool::global().clear();
}

/** Write @p actual to `<stem>.actual.tsv` and compare it line by line
 *  with the golden file at @p golden_path. */
void
expectMatchesGolden(const std::vector<std::string> &actual,
                    const std::string &stem,
                    const std::string &golden_path)
{
    {
        std::ofstream out(stem + ".actual.tsv");
        for (const std::string &l : actual)
            out << l << '\n';
    }

    const std::vector<std::string> golden = readLines(golden_path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << golden_path;
    EXPECT_EQ(actual.size(), golden.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < std::min(actual.size(), golden.size());
         ++i) {
        if (actual[i] == golden[i])
            continue;
        if (++mismatches <= 10)
            ADD_FAILURE() << "line " << i + 1 << ": expected '"
                          << golden[i] << "', got '" << actual[i]
                          << "'";
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(TimingGolden, RowsMatchFrozenDigests)
{
    ASSERT_NO_FATAL_FAILURE(pinEnvironment());
    std::vector<std::string> actual;
    artifactLines(kTimingArtifacts, "sim.core", simCoreMetrics, actual);
    suiteLines("runner", runnerConfigs(), actual);
    expectMatchesGolden(actual, "timing_rows", BPSIM_GOLDEN_TIMING_ROWS);
}

TEST(TimingGolden, CoreShapesMatchFrozenDigests)
{
    ASSERT_NO_FATAL_FAILURE(pinEnvironment());
    std::vector<std::string> actual;
    suiteLines("core_shapes", coreShapeConfigs(), actual);
    tracerLines(actual);
    expectMatchesGolden(actual, "core_shapes", BPSIM_GOLDEN_CORE_SHAPES);
}

TEST(TimingGolden, AccuracyRowsMatchFrozenDigests)
{
    ASSERT_NO_FATAL_FAILURE(pinEnvironment());
    std::vector<std::string> actual;
    artifactLines(accuracyArtifacts(), "metrics", accuracyMetrics,
                  actual);
    expectMatchesGolden(actual, "accuracy_rows",
                        BPSIM_GOLDEN_ACCURACY_ROWS);
}

TEST(TimingGolden, ProtectionCellsMatchFrozenDigests)
{
    ASSERT_NO_FATAL_FAILURE(pinEnvironment());
    std::vector<std::string> actual;
    protectionLines(actual);
    expectMatchesGolden(actual, "protection_rows",
                        BPSIM_GOLDEN_PROTECTION_ROWS);
}

} // namespace
} // namespace bpsim

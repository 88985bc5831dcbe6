/**
 * @file
 * bpsim's benchmark program. One process runs one workload (a closed
 * batch sweep over the twelve SPECint stand-ins), checks every cell
 * it produced, and prints one JSON result line on stdout.
 *
 *   bpbench --workload accuracy_grid|timing_grid|protected_parallel
 *           [--seed N] [--seconds S] [--trace 0|1]
 *           [--ops N]
 *           [--golden FILE] [--write-golden FILE] [--scratch DIR]
 *
 * Untraced (--trace 0): set up the suite's traces kSetupReps times,
 * then repeat set-up and sweep until --seconds have passed and report
 * end-to-end metrics as medians over the repetitions. Traced
 * (--trace 1): untraced sweeps alternate with traced ones for
 * --seconds, followed by one pass of per-layer probes; prints the
 * per-layer metrics, each layer's self time and the tracing overhead,
 * and writes the spans to DIR/spans-<workload>.json.
 *
 * Spans are recorded here, around the calls this file makes into
 * each layer's public entry points; nothing inside the library is
 * instrumented. See perfbench/README.md for the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/run_report.hh"
#include "parallel/cell_pool.hh"
#include "robust/protection.hh"
#include "trace/trace_cache.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim::bench {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------
// Spans: kept in memory, written once at exit.

/** Layer a span's self time is charged to. */
enum class Layer {
    Workloads,
    Trace,
    Predictors,
    Core,
    Pipeline,
    Sim,
    Robust,
    Obs,
    Bench, ///< the benchmark's own bookkeeping (roots, checks)
};

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Workloads: return "workloads";
      case Layer::Trace: return "trace";
      case Layer::Predictors: return "predictors";
      case Layer::Core: return "core";
      case Layer::Pipeline: return "pipeline";
      case Layer::Sim: return "sim";
      case Layer::Robust: return "robust";
      case Layer::Obs: return "obs";
      case Layer::Bench: return "bench";
    }
    return "bench";
}

constexpr Layer kSpannedLayers[] = {
    Layer::Workloads, Layer::Trace, Layer::Predictors,
    Layer::Core,      Layer::Pipeline, Layer::Sim,
    Layer::Robust,    Layer::Obs,
};

/** Thread-safe in-memory span log. Parents are passed explicitly so
 *  spans opened on pool workers attach to the sweep that ran them. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        Layer layer = Layer::Bench;
        int parent = -1;
        double startNs = 0.0;
        double endNs = 0.0;
    };

    SpanLog() : epoch_(Clock::now()) {}

    int
    open(std::string name, Layer layer, int parent)
    {
        const double t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({std::move(name), layer, parent, t, t});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        const double t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].endNs = t;
    }

    /** Call only once every recording thread has finished. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the union of its children's intervals. */
    std::vector<double>
    selfNs() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span &s : spans_)
            if (s.parent >= 0)
                kids[static_cast<std::size_t>(s.parent)].push_back(
                    {s.startNs, s.endNs});
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0.0;
            double curLo = 0.0, curHi = -1.0;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.startNs);
                hi = std::min(hi, s.endNs);
                if (hi <= lo)
                    continue;
                if (lo > curHi) {
                    if (curHi > curLo)
                        covered += curHi - curLo;
                    curLo = lo;
                    curHi = hi;
                } else {
                    curHi = std::max(curHi, hi);
                }
            }
            if (curHi > curLo)
                covered += curHi - curLo;
            self[i] = std::max(0.0, (s.endNs - s.startNs) - covered);
        }
        return self;
    }

    bool
    writeJson(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "  {\"id\": " << i << ", \"parent\": " << s.parent
                << ", \"name\": \"" << s.name << "\", \"layer\": \""
                << layerName(s.layer) << "\", \"start_ns\": "
                << static_cast<long long>(s.startNs)
                << ", \"dur_ns\": "
                << static_cast<long long>(s.endNs - s.startNs) << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    double
    nowNs() const
    {
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; a null log records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, std::string name, Layer layer, int parent)
        : log_(log),
          id_(log ? log->open(std::move(name), layer, parent) : -1)
    {
    }
    ~SpanScope()
    {
        if (log_)
            log_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

// ---------------------------------------------------------------
// Workloads.

constexpr std::size_t k64K = 64 * 1024;
/** The seed whose cell digests are committed (golden_seed42.tsv). */
constexpr std::uint64_t kGoldenSeed = 42;
/** Set-ups before the measured phase (one more precedes each sweep). */
constexpr unsigned kSetupReps = 3;
/** Ops per stand-in of the traced run's layer probes. */
constexpr Counter kProbeOps = 50000;

struct WorkloadDef
{
    std::string name;
    Counter defaultOps;
    unsigned jobs;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"accuracy_grid", 150000, 1},
        {"timing_grid", 60000, 1},
        {"protected_parallel", 100000, 4},
    };
    return defs;
}

robust::ProtectionConfig
protectionFor(robust::ProtectionPolicy policy)
{
    robust::ProtectionConfig cfg;
    cfg.policy = policy;
    cfg.wordBits = 64;
    cfg.scrubIntervalBranches = 2048;
    return cfg;
}

/** Per-cell fault seed derived from the workload seed, so no two
 *  cells of one run share a flip sequence. */
std::uint64_t
faultSeed(std::uint64_t seed, std::size_t a, std::size_t b,
          std::size_t c, std::size_t wi)
{
    return seed * 0x9e3779b97f4a7c15ull + 0x5eedfa17 +
           ((a * 29 + b) * 31 + c) * 997 + wi;
}

std::string
rateLabel(double rate)
{
    if (rate == 0.0)
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", rate);
    return buf;
}

/** Records factory calls made from inside the sweep as core spans. */
struct FactoryTap
{
    SpanLog *log = nullptr;
    int parent = -1;
};

template <typename T>
std::unique_ptr<T>
tapped(const FactoryTap &tap, const std::function<std::unique_ptr<T>()> &f)
{
    SpanScope span(tap.log, "factory", Layer::Core, tap.parent);
    return f();
}

struct Grid
{
    std::vector<AccuracyCellConfig> acc;
    std::vector<TimingCellConfig> tim;
};

/** The workload's cells. Their factories report to @p tap, which
 *  must outlive the returned grid. */
Grid
buildGrid(const std::string &workload, std::uint64_t seed,
          const FactoryTap *tap)
{
    Grid g;
    if (workload == "accuracy_grid") {
        for (PredictorKind k : allKinds())
            for (std::size_t budget : figure1BudgetsBytes())
                g.acc.emplace_back(
                    [tap, k, budget] {
                        return tapped<DirectionPredictor>(*tap, [&] {
                            return makePredictor(k, budget);
                        });
                    },
                    kindName(k), budget);
    } else if (workload == "timing_grid") {
        const CoreConfig cfg;
        for (PredictorKind k : largePredictorKinds())
            for (DelayMode mode :
                 {DelayMode::Ideal, DelayMode::Overriding})
                g.tim.emplace_back(
                    [tap, k, mode] {
                        return tapped<FetchPredictor>(*tap, [&] {
                            return makeFetchPredictor(k, k64K, mode);
                        });
                    },
                    kindName(k), delayModeName(mode), k64K, cfg);
    } else if (workload == "protected_parallel") {
        const PredictorKind kind = PredictorKind::Gshare;
        const std::vector<std::size_t> budgets = {16 * 1024, k64K};
        const std::vector<double> rates = {0.0, 1e-4, 1e-3};
        const auto &policies = robust::allProtectionPolicies();
        for (std::size_t bi = 0; bi < budgets.size(); ++bi)
            for (std::size_t ri = 0; ri < rates.size(); ++ri)
                for (std::size_t pi = 0; pi < policies.size(); ++pi) {
                    AccuracyCellConfig c;
                    const std::size_t budget = budgets[bi];
                    const double rate = rates[ri];
                    const auto policy = policies[pi];
                    c.makeForWorkload = [=](std::size_t wi) {
                        return tapped<DirectionPredictor>(*tap, [&] {
                            robust::FaultPlan plan;
                            plan.upsetRatePerBit = rate;
                            plan.intervalBranches = 256;
                            plan.seed = faultSeed(seed, bi, ri, pi, wi);
                            return std::unique_ptr<DirectionPredictor>(
                                makeProtectedPredictor(
                                    kind, budget, protectionFor(policy),
                                    plan));
                        });
                    };
                    c.name = kindName(kind) + "@u=" + rateLabel(rate) +
                             "@p=" +
                             robust::protectionPolicyName(policy);
                    c.budgetBytes = budget;
                    g.acc.push_back(std::move(c));
                }
        const std::vector<double> timingRates = {0.0, 1e-3};
        for (std::size_t ri = 0; ri < timingRates.size(); ++ri)
            for (std::size_t pi = 0; pi < policies.size(); ++pi) {
                TimingCellConfig c;
                const double rate = timingRates[ri];
                const auto policy = policies[pi];
                c.makeForWorkload = [=](std::size_t wi) {
                    return tapped<FetchPredictor>(*tap, [&] {
                        robust::FaultPlan plan;
                        plan.upsetRatePerBit = rate;
                        plan.intervalBranches = 256;
                        plan.seed = faultSeed(seed, 77, ri, pi, wi);
                        return makeProtectedFetchPredictor(
                            kind, k64K, DelayMode::Overriding,
                            protectionFor(policy), plan);
                    });
                };
                c.name = kindName(kind) + "@u=" + rateLabel(rate) +
                         "@p=" + robust::protectionPolicyName(policy);
                c.mode = delayModeName(DelayMode::Overriding);
                c.budgetBytes = k64K;
                c.cfg = CoreConfig{};
                g.tim.push_back(std::move(c));
            }
    }
    return g;
}

// ---------------------------------------------------------------
// One repetition of a workload's sweep, and its checks.

struct RepResult
{
    double wallS = 0.0;
    double reportMs = 0.0;
    Counter cells = 0;
    Counter failed = 0;
    Counter branches = 0;  ///< conditional branches predicted
    Counter insts = 0;     ///< trace instructions covered
    EnsembleStats ens;     ///< summed over the sweep's calls
    parallel::PoolStats pool;
    std::map<std::string, std::string> cellDigests; ///< key -> hex
    std::string rowsJson; ///< every row, serialized
    std::vector<std::string> problems;
};

void
addStats(EnsembleStats &into, const EnsembleStats &s)
{
    into.batchedCells += s.batchedCells;
    into.serialCells += s.serialCells;
}

std::string
cellDigest(const obs::RunReport::Row &r)
{
    return hex64(fnv1a(std::to_string(r.mispredictions) + "," +
                       std::to_string(r.cycles) + "," +
                       std::to_string(r.instructions)));
}

void
fail(RepResult &rep, Counter cells, const std::string &why)
{
    rep.failed += cells;
    if (rep.problems.size() < 20)
        rep.problems.push_back(why);
}

RepResult
runRep(const SuiteTraces &suite, const std::string &workload,
       std::uint64_t seed, unsigned jobs, SpanLog *log, int parent)
{
    RepResult rep;
    FactoryTap tap;
    Grid g = buildGrid(workload, seed, &tap);
    const std::size_t n = suite.size();
    rep.cells = (g.acc.size() + g.tim.size()) * n;

    obs::RunReport report;
    report.experiment = workload;
    suite.describe(report);
    parallel::CellPool pool(jobs, workload);

    const auto t0 = Clock::now();
    {
        SpanScope sweep(log, "sweep", Layer::Core, parent);
        tap.log = log;
        tap.parent = sweep.id();
        if (!g.acc.empty()) {
            try {
                addStats(rep.ens,
                         suiteAccuracyReportEnsemble(suite, g.acc, report,
                                                     nullptr, &pool));
            } catch (const std::exception &e) {
                fail(rep, g.acc.size() * n,
                     std::string("accuracy sweep threw: ") + e.what());
            }
        }
        if (!g.tim.empty()) {
            try {
                addStats(rep.ens,
                         suiteTimingReportEnsemble(suite, g.tim, report,
                                                   nullptr, nullptr,
                                                   &pool));
            } catch (const std::exception &e) {
                fail(rep, g.tim.size() * n,
                     std::string("timing sweep threw: ") + e.what());
            }
        }
    }
    {
        // Report emission: what every artifact does last.
        SpanScope span(log, "report", Layer::Obs, parent);
        const auto r0 = Clock::now();
        rep.rowsJson = report.toJson().dump();
        rep.reportMs = 1e3 * secondsSince(r0);
    }
    rep.wallS = secondsSince(t0);
    rep.pool = pool.stats();

    SpanScope check(log, "check", Layer::Bench, parent);
    if (rep.failed)
        return rep;

    // Per-cell invariants that hold for any seed.
    for (const AccuracyCellConfig &c : g.acc) {
        if (c.results.size() != n) {
            fail(rep, n, c.name + ": missing accuracy results");
            continue;
        }
        for (std::size_t wi = 0; wi < n; ++wi) {
            const AccuracyResult &r = c.results[wi];
            rep.branches += r.branches;
            rep.insts += suite.trace(wi).size();
            if (r.branches != suite.trace(wi).condBranches())
                fail(rep, 1,
                     c.name + "/" + suite.name(wi) +
                         ": branches != condBranches()");
        }
    }
    for (const TimingCellConfig &c : g.tim) {
        if (c.results.size() != n) {
            fail(rep, n, c.name + ": missing timing results");
            continue;
        }
        for (std::size_t wi = 0; wi < n; ++wi) {
            const SimResult &r = c.results[wi];
            const std::string where =
                c.name + "/" + c.mode + "/" + suite.name(wi) + ": ";
            rep.branches += r.condBranches;
            rep.insts += r.instructions;
            if (r.instructions != suite.trace(wi).size())
                fail(rep, 1, where + "instructions != trace ops");
            else if (r.frontEndStallCycles !=
                     r.overrideStallCycles + r.btbStallCycles)
                fail(rep, 1,
                     where + "frontEndStallCycles != override + btb");
            else if (r.squashedUops !=
                     static_cast<Counter>(c.cfg.issueWidth) *
                         r.flushCycles())
                fail(rep, 1,
                     where + "squashedUops != issueWidth * flushCycles");
        }
    }
    if (report.rows.size() != rep.cells)
        fail(rep, rep.cells, "report has " +
                                 std::to_string(report.rows.size()) +
                                 " rows for " +
                                 std::to_string(rep.cells) + " cells");
    for (const std::string &p : report.validate())
        fail(rep, 1, "report: " + p);
    for (const auto &row : report.rows)
        rep.cellDigests[row.key()] = cellDigest(row);
    return rep;
}

// ---------------------------------------------------------------
// Golden digests: "<workload>\t<ops>\t<seed>\t<row key>\t<digest>".

using Golden = std::map<std::string, std::string>;

Golden
readGolden(const std::string &path, const std::string &workload,
           Counter ops, std::uint64_t seed)
{
    Golden g;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> f;
        std::stringstream ss(line);
        std::string field;
        while (std::getline(ss, field, '\t'))
            f.push_back(field);
        if (f.size() != 5 || f[0] != workload ||
            f[1] != std::to_string(ops) || f[2] != std::to_string(seed))
            continue;
        g[f[3]] = f[4];
    }
    return g;
}

bool
writeGolden(const std::string &path, const std::string &workload,
            Counter ops, std::uint64_t seed,
            const std::map<std::string, std::string> &digests)
{
    std::ofstream out(path, std::ios::app);
    for (const auto &[key, hex] : digests)
        out << workload << '\t' << ops << '\t' << seed << '\t' << key
            << '\t' << hex << '\n';
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------
// Per-layer probes (traced run only). They run on their own traces,
// generated here at kProbeOps per stand-in (or --ops, when given), so
// their counts are the same for every workload.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Probes
{
  public:
    Probes(SpanLog &log, int root, Counter ops, std::uint64_t seed,
           std::string scratch, std::vector<Metric> &out,
           std::vector<std::string> &problems)
        : log_(log), root_(root), ops_(ops), seed_(seed),
          scratch_(std::move(scratch)), out_(out), problems_(problems)
    {
    }

    void
    runAll()
    {
        generate();
        traceCache();
        predictors();
        pipelineAndSim();
        robust();
    }

  private:
    double
    timed(const char *name, Layer layer,
          const std::function<void()> &body)
    {
        SpanScope span(&log_, name, layer, root_);
        const auto t0 = Clock::now();
        body();
        return 1e9 * secondsSince(t0);
    }

    void
    emit(std::string name, double value, std::string unit)
    {
        out_.push_back({std::move(name), value, std::move(unit)});
    }

    void
    generate()
    {
        double ns = 0.0;
        Counter total = 0;
        for (const std::string &name : specint2000Names()) {
            const auto w = makeWorkload(name);
            ns += timed("generateTrace", Layer::Workloads, [&] {
                traces_.push_back(generateTrace(*w, ops_, seed_));
            });
            total += traces_.back().size();
            names_.push_back(name);
        }
        emit("workloads.gen_ns_per_op", ns / static_cast<double>(total),
             "ns");
        totalOps_ = total;
    }

    void
    traceCache()
    {
        const std::string dir = scratch_ + "/trace_cache_probe";
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir, ec);
        const TraceCache cache(dir);
        double storeNs = 0.0, loadNs = 0.0;
        std::uintmax_t bytes = 0;
        for (std::size_t i = 0; i < traces_.size(); ++i) {
            bool stored = false;
            storeNs += timed("TraceCache::store", Layer::Trace, [&] {
                stored = cache.store(names_[i], ops_, seed_, traces_[i]);
            });
            if (!stored) {
                problems_.push_back("trace store failed: " + names_[i]);
                continue;
            }
            bytes += std::filesystem::file_size(
                cache.entryPath(names_[i], ops_, seed_), ec);
        }
        for (std::size_t i = 0; i < traces_.size(); ++i) {
            std::optional<TraceBuffer> back;
            loadNs += timed("TraceCache::load", Layer::Trace, [&] {
                back = cache.load(names_[i], ops_, seed_);
            });
            if (!back || !sameBranches(*back, traces_[i]))
                problems_.push_back("trace load mismatch: " + names_[i]);
        }
        std::filesystem::remove_all(dir, ec);
        emit("trace.store_ms", storeNs / 1e6, "ms");
        emit("trace.load_ms", loadNs / 1e6, "ms");
        emit("trace.bytes_per_op",
             static_cast<double>(bytes) / static_cast<double>(totalOps_),
             "B");
    }

    static bool
    sameBranches(const TraceBuffer &a, const TraceBuffer &b)
    {
        if (a.size() != b.size() || a.condBranches() != b.condBranches())
            return false;
        const BranchSpan x = a.branchView(), y = b.branchView();
        if (x.empty())
            return true;
        return std::memcmp(x.pcData(), y.pcData(),
                           x.size() * sizeof(Addr)) == 0 &&
               std::memcmp(x.takenData(), y.takenData(), x.size()) == 0;
    }

    void
    predictors()
    {
        for (PredictorKind k : allKinds()) {
            double ns = 0.0;
            Counter branches = 0;
            for (std::size_t i = 0; i < traces_.size(); ++i) {
                auto pred = makePredictor(k, k64K);
                AccuracyResult r;
                ns += timed("runAccuracy", Layer::Predictors,
                            [&] { r = runAccuracy(*pred, traces_[i]); });
                branches += r.branches;
                if (r.branches != traces_[i].condBranches())
                    problems_.push_back("probe " + kindName(k) + "/" +
                                        names_[i] +
                                        ": branches != condBranches()");
            }
            emit("predictors.ns_per_branch." + kindName(k),
                 ns / static_cast<double>(std::max<Counter>(1, branches)),
                 "ns");
        }
    }

    /** The timing grid's cells, each run as a fetch-wrapper-only
     *  replay of the branch stream and as a full runTiming cell. */
    void
    pipelineAndSim()
    {
        const CoreConfig cfg;
        std::map<std::string, double> simNs, cycles;
        double fetchNsTotal = 0.0, timingNsTotal = 0.0;
        Counter restarts = 0;
        SimResult sum;
        for (DelayMode mode : {DelayMode::Ideal, DelayMode::Overriding}) {
            double ns = 0.0;
            Counter branches = 0;
            for (PredictorKind k : largePredictorKinds()) {
                for (std::size_t i = 0; i < traces_.size(); ++i) {
                    auto fp = makeFetchPredictor(k, k64K, mode);
                    const BranchSpan view = traces_[i].branchView();
                    const double fns =
                        timed("fetch replay", Layer::Pipeline, [&] {
                            for (std::size_t b = 0; b < view.size();
                                 ++b) {
                                const FetchPrediction p =
                                    fp->predict(view.pc(b));
                                restarts += p.bubbleCycles > 0;
                                fp->update(view.pc(b), view.taken(b));
                            }
                        });
                    ns += fns;
                    branches += view.size();

                    auto tp = makeFetchPredictor(k, k64K, mode);
                    SimResult r;
                    const double tns = timed("runTiming", Layer::Sim, [&] {
                        r = runTiming(cfg, *tp, traces_[i]);
                    });
                    fetchNsTotal += fns;
                    timingNsTotal += tns;
                    simNs[names_[i]] += tns;
                    cycles[names_[i]] += static_cast<double>(r.cycles);
                    sum.cycles += r.cycles;
                    sum.instructions += r.instructions;
                    sum.robStallCycles += r.robStallCycles;
                    sum.overrideStallCycles += r.overrideStallCycles;
                    sum.mispredictWaitCycles += r.mispredictWaitCycles;
                    if (r.instructions != traces_[i].size())
                        problems_.push_back(
                            "probe runTiming " + names_[i] +
                            ": instructions != trace ops");
                }
            }
            emit("pipeline.ns_per_branch." + delayModeName(mode),
                 ns / static_cast<double>(std::max<Counter>(1, branches)),
                 "ns");
        }
        emit("pipeline.override_restarts", static_cast<double>(restarts),
             "count");
        for (const std::string &name : names_)
            emit("sim.ns_per_cycle." + name,
                 simNs[name] / std::max(1.0, cycles[name]), "ns");
        emit("sim.cycles", static_cast<double>(sum.cycles), "count");
        emit("sim.instructions", static_cast<double>(sum.instructions),
             "count");
        emit("sim.self_share",
             timingNsTotal > 0.0
                 ? (timingNsTotal - fetchNsTotal) / timingNsTotal
                 : 0.0,
             "ratio");
        emit("sim.rob_stall_cycles",
             static_cast<double>(sum.robStallCycles), "count");
        emit("sim.flush_cycles", static_cast<double>(sum.flushCycles()),
             "count");
    }

    void
    robust()
    {
        for (robust::ProtectionPolicy policy :
             robust::allProtectionPolicies()) {
            double ns = 0.0;
            Counter branches = 0;
            for (std::size_t i = 0; i < traces_.size(); ++i) {
                robust::FaultPlan plan;
                plan.upsetRatePerBit = 1e-4;
                plan.intervalBranches = 256;
                plan.seed = faultSeed(seed_, 5, 0,
                                      static_cast<std::size_t>(policy), i);
                auto pred = makeProtectedPredictor(
                    PredictorKind::Gshare, k64K, protectionFor(policy),
                    plan);
                AccuracyResult r;
                ns += timed("runAccuracy protected", Layer::Robust,
                            [&] { r = runAccuracy(*pred, traces_[i]); });
                branches += r.branches;
            }
            emit("robust.ns_per_branch." +
                     robust::protectionPolicyName(policy),
                 ns / static_cast<double>(std::max<Counter>(1, branches)),
                 "ns");
        }
    }

    SpanLog &log_;
    int root_;
    Counter ops_;
    std::uint64_t seed_;
    std::string scratch_;
    std::vector<Metric> &out_;
    std::vector<std::string> &problems_;
    std::vector<std::string> names_;
    std::vector<TraceBuffer> traces_;
    Counter totalOps_ = 1;
};

// ---------------------------------------------------------------

/** Layer metrics of the traced sweeps themselves, from their spans,
 *  EnsembleStats and CellPool stats, plus every layer's self time
 *  over the whole traced run. */
void
sweepLayerMetrics(const SpanLog &log, const std::vector<RepResult> &traced,
                  std::vector<Metric> &metrics)
{
    const double n = static_cast<double>(traced.size());
    EnsembleStats ens;
    double busy = 0.0, idle = 0.0, maxCell = 0.0, cells = 0.0;
    double memberBranches = 0.0;
    std::vector<double> reportMs;
    for (const RepResult &r : traced) {
        addStats(ens, r.ens);
        busy += r.pool.busyMs;
        idle += std::max(0.0,
                         r.pool.wallMs * r.pool.jobs - r.pool.busyMs);
        for (double c : r.pool.cellMs)
            maxCell = std::max(maxCell, c);
        cells += static_cast<double>(r.pool.cellMs.size());
        memberBranches += static_cast<double>(r.branches);
        reportMs.push_back(r.reportMs);
    }
    double sweepSelfNs = 0.0, factoryNs = 0.0;
    const std::vector<double> self = log.selfNs();
    const auto &spans = log.spans();
    std::map<Layer, double> layerSelf;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == "sweep")
            sweepSelfNs += self[i];
        if (spans[i].name == "factory")
            factoryNs += spans[i].endNs - spans[i].startNs;
        layerSelf[spans[i].layer] += self[i];
    }
    const Counter allCells = ens.batchedCells + ens.serialCells;
    metrics.push_back({"core.ensemble.ns_per_member_branch",
                       sweepSelfNs / std::max(1.0, memberBranches), "ns"});
    metrics.push_back(
        {"core.ensemble.batched_share",
         allCells ? static_cast<double>(ens.batchedCells) /
                        static_cast<double>(allCells)
                  : 0.0,
         "ratio"});
    metrics.push_back({"core.factory_ms", factoryNs / 1e6 / n, "ms"});
    const double poolWall = busy + idle;
    metrics.push_back({"parallel.utilization",
                       poolWall > 0 ? busy / poolWall : 0.0, "ratio"});
    metrics.push_back({"parallel.busy_ms", busy / n, "ms"});
    metrics.push_back({"parallel.idle_ms", idle / n, "ms"});
    metrics.push_back({"parallel.max_cell_ms", maxCell, "ms"});
    metrics.push_back({"parallel.cells", cells / n, "count"});
    metrics.push_back({"obs.report_ms", median(reportMs), "ms"});
    for (Layer l : kSpannedLayers)
        metrics.push_back({std::string(layerName(l)) + ".self_ms",
                           layerSelf[l] / 1e6, "ms"});
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 30.0;
    bool trace = false;
    Counter ops = 0;
    std::string golden;
    std::string writeGolden;
    std::string scratch = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "bpbench: %s\nusage: bpbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--ops N] "
                 "[--golden FILE] [--write-golden FILE] "
                 "[--scratch DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--ops")
                o.ops = std::stoull(v);
            else if (a == "--golden")
                o.golden = v;
            else if (a == "--write-golden")
                o.writeGolden = v;
            else if (a == "--scratch")
                o.scratch = v;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.seconds < 0)
        usage("--seconds must not be negative");
    return o;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonNumber(double v)
{
    if (!(v == v) || v > 1e300 || v < -1e300)
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
run(const Options &opt)
{
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs())
        if (d.name == opt.workload)
            def = &d;
    if (!def)
        usage("unknown workload " + opt.workload);
    const Counter ops = opt.ops ? opt.ops : def->defaultOps;

    SpanLog log;
    SpanLog *tlog = opt.trace ? &log : nullptr;
    const int root = log.open(opt.workload, Layer::Bench, -1);
    std::vector<std::string> problems;
    Counter attempted = 0, failed = 0;

    // Set-up: build the suite's traces, as every artifact does when
    // BPSIM_TRACE_CACHE is unset (an empty cache generates them). It
    // runs kSetupReps times first and again before every sweep, so
    // its samples span the whole run as the sweeps' do.
    std::vector<double> setupS;
    std::unique_ptr<SuiteTraces> suite;
    const auto setUp = [&] {
        suite.reset();
        SpanScope span(tlog, "SuiteTraces", Layer::Workloads, root);
        const auto t0 = Clock::now();
        suite = std::make_unique<SuiteTraces>(ops, opt.seed, nullptr,
                                              TraceCache{});
        setupS.push_back(secondsSince(t0));
    };
    for (unsigned i = 0; i < kSetupReps; ++i)
        setUp();
    std::fprintf(stderr, "%s: setup %.3f s, %llu ops/workload, seed %llu\n",
                 opt.workload.c_str(), median(setupS),
                 static_cast<unsigned long long>(ops),
                 static_cast<unsigned long long>(opt.seed));

    const Golden golden =
        opt.golden.empty()
            ? Golden{}
            : readGolden(opt.golden, opt.workload, ops, opt.seed);
    // At the recorded seed and op count the digests are required, so
    // a lost or truncated golden file cannot pass silently.
    if (golden.empty() && opt.writeGolden.empty() &&
        opt.seed == kGoldenSeed && ops == def->defaultOps) {
        problems.push_back("no golden digests for " + opt.workload +
                           " in " + opt.golden);
        ++failed;
    }
    std::map<std::string, std::string> firstDigests;
    std::string firstRows;

    // Every repetition is checked against the golden digests (when
    // some are recorded for this workload, ops and seed) and against
    // the first repetition.
    const auto check = [&](RepResult &rep) {
        attempted += rep.cells;
        if (!rep.failed) {
            if (firstDigests.empty()) {
                firstDigests = rep.cellDigests;
                firstRows = rep.rowsJson;
            } else if (rep.rowsJson != firstRows) {
                fail(rep, rep.cells, "rows differ from the first run");
            }
            if (!golden.empty()) {
                Counter bad = 0;
                for (const auto &[key, hex] : rep.cellDigests) {
                    const auto it = golden.find(key);
                    if (it == golden.end() || it->second != hex) {
                        if (bad == 0)
                            fail(rep, 0, "golden digest mismatch: " + key);
                        ++bad;
                    }
                }
                if (golden.size() != rep.cellDigests.size() && bad == 0) {
                    fail(rep, 0, "golden digest count differs");
                    ++bad;
                }
                rep.failed += std::min<Counter>(bad, rep.cells);
            }
        }
        failed += std::min(rep.failed, rep.cells);
        for (const std::string &p : rep.problems)
            if (problems.size() < 20)
                problems.push_back(p);
    };

    // Measured phase: whole sweeps until --seconds have passed (at
    // least three). The traced run alternates untraced sweeps with
    // traced ones, so drift in host speed does not bias the overhead.
    std::vector<RepResult> reps, traced;
    const auto m0 = Clock::now();
    while (reps.size() < 3 || secondsSince(m0) < opt.seconds) {
        setUp();
        reps.push_back(
            runRep(*suite, opt.workload, opt.seed, def->jobs, nullptr, -1));
        check(reps.back());
        std::fprintf(stderr, "  rep %zu: %.3f s\n", reps.size(),
                     reps.back().wallS);
        if (opt.trace) {
            traced.push_back(runRep(*suite, opt.workload, opt.seed,
                                    def->jobs, &log, root));
            check(traced.back());
        }
    }

    // The parallel workload's rows must equal the same grid at 1 job.
    if (def->jobs > 1) {
        RepResult serial =
            runRep(*suite, opt.workload, opt.seed, 1, nullptr, -1);
        check(serial);
        std::fprintf(stderr, "  1-job reference: %.3f s\n", serial.wallS);
    }
    if (!opt.writeGolden.empty() && !firstDigests.empty() &&
        !writeGolden(opt.writeGolden, opt.workload, ops, opt.seed,
                     firstDigests)) {
        problems.push_back("cannot write " + opt.writeGolden);
        ++failed;
    }

    std::vector<Metric> metrics;
    const auto wallOf = [](const std::vector<RepResult> &rs) {
        std::vector<double> w;
        for (const RepResult &r : rs)
            w.push_back(r.wallS);
        return median(w);
    };
    const double wall = wallOf(reps);
    if (!opt.trace) {
        const RepResult &r0 = reps.front();
        metrics.push_back({"wall_s", wall, "s"});
        metrics.push_back({"setup_s", median(setupS), "s"});
        metrics.push_back({"branches_per_s",
                           static_cast<double>(r0.branches) / wall, "1/s"});
        metrics.push_back({"sim_insts_per_s",
                           static_cast<double>(r0.insts) / wall, "1/s"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        metrics.push_back(
            {"ok_share",
             attempted ? static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted)
                       : 0.0,
             "ratio"});
    } else {
        Probes(log, root, opt.ops ? opt.ops : kProbeOps, opt.seed,
               opt.scratch, metrics, problems)
            .runAll();

        sweepLayerMetrics(log, traced, metrics);
        metrics.push_back(
            {"tracing.overhead_s", wallOf(traced) - wall, "s"});
    }
    log.close(root);
    if (opt.trace) {
        const std::string path =
            opt.scratch + "/spans-" + opt.workload + ".json";
        if (!log.writeJson(path))
            problems.push_back("cannot write " + path);
    }

    // The probes' problems are failures of cells too.
    const bool correct = failed == 0 && problems.empty();
    if (!correct && failed == 0)
        failed = 1;
    for (const std::string &p : problems)
        std::fprintf(stderr, "FAIL: %s\n", p.c_str());

    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) +
            ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace bpsim::bench

int
main(int argc, char **argv)
{
    try {
        return bpsim::bench::run(bpsim::bench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bpbench: %s\n", e.what());
        return 1;
    }
}

#include "core/runner.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <typeindex>

#include "common/stats.hh"
#include "core/dispatch.hh"
#include "core/ensemble.hh"
#include "parallel/cell_pool.hh"
#include "trace/shared_trace_pool.hh"
#include "workloads/registry.hh"

namespace bpsim {

namespace {

/**
 * The one accuracy replay loop, shared by the poll and non-poll
 * entry points so they cannot diverge. Iterates the trace's dense
 * conditional-branch view instead of skipping non-branch micro-ops.
 *
 * Templated over the predictor's *static* type: instantiated once
 * per concrete (final) predictor class via withConcretePredictor so
 * predict/update inline, and once at Pred=DirectionPredictor as the
 * virtual fallback for unknown types.
 */
template <typename Pred, typename Poll>
AccuracyResult
runAccuracyLoop(Pred &pred, const TraceBuffer &trace, Poll &&poll,
                Counter poll_interval)
{
    AccuracyResult r;
    Counter untilPoll = poll_interval;
    for (const BranchRecord &b : trace.branchView()) {
        const bool predicted = pred.predict(b.pc);
        pred.update(b.pc, b.taken);
        ++r.branches;
        if (predicted != b.taken)
            ++r.mispredictions;
        if (--untilPoll == 0) {
            poll();
            untilPoll = poll_interval;
        }
    }
    return r;
}

/** Monomorphize on the concrete type when known, else run the
 *  virtual-dispatch loop. Both paths are the same template, so they
 *  cannot diverge semantically. */
template <typename Poll>
AccuracyResult
runAccuracyDispatch(DirectionPredictor &pred, const TraceBuffer &trace,
                    Poll &&poll, Counter poll_interval)
{
    AccuracyResult r;
    const bool matched =
        withConcretePredictor(pred, [&](auto &concrete) {
            r = runAccuracyLoop(concrete, trace, poll, poll_interval);
        });
    if (!matched)
        r = runAccuracyLoop(pred, trace, poll, poll_interval);
    return r;
}

/** Run the cells serially or on the pool when one was passed. */
void
forEachCell(parallel::CellPool *pool, std::size_t count,
            const std::function<void(std::size_t)> &compute,
            const std::function<void(std::size_t)> &commit)
{
    if (pool) {
        pool->run(count, compute, commit);
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        compute(i);
        commit(i);
    }
}

} // namespace

AccuracyResult
runAccuracy(DirectionPredictor &pred, const TraceBuffer &trace)
{
    return runAccuracyDispatch(
        pred, trace, [] {}, std::numeric_limits<Counter>::max());
}

AccuracyResult
runAccuracy(DirectionPredictor &pred, const TraceBuffer &trace,
            const std::function<void()> &poll, Counter poll_interval)
{
    return runAccuracyDispatch(pred, trace, poll, poll_interval);
}

AccuracyResult
runAccuracyVirtual(DirectionPredictor &pred, const TraceBuffer &trace)
{
    return runAccuracyLoop(
        pred, trace, [] {}, std::numeric_limits<Counter>::max());
}

SimResult
runTiming(const CoreConfig &cfg, FetchPredictor &pred,
          const TraceBuffer &trace)
{
    return runTiming(cfg, pred, trace, nullptr);
}

SimResult
runTiming(const CoreConfig &cfg, FetchPredictor &pred,
          const TraceBuffer &trace, obs::EventTracer *tracer)
{
    OooCore core(cfg, pred);
    core.attachTracer(tracer);
    return core.run(trace);
}

obs::RunReport::Row
reportRow(const std::string &workload, const std::string &predictor,
          std::size_t budget_bytes, const AccuracyResult &r)
{
    obs::RunReport::Row row;
    row.workload = workload;
    row.predictor = predictor;
    row.budgetBytes = budget_bytes;
    row.branches = r.branches;
    row.mispredictions = r.mispredictions;
    return row;
}

obs::RunReport::Row
reportRow(const std::string &workload, const std::string &predictor,
          const std::string &mode, std::size_t budget_bytes,
          const CoreConfig &cfg, const SimResult &r)
{
    obs::RunReport::Row row;
    row.workload = workload;
    row.predictor = predictor;
    row.mode = mode;
    row.budgetBytes = budget_bytes;
    row.branches = r.condBranches;
    row.mispredictions = r.mispredictions;
    row.hasTiming = true;
    row.issueWidth = cfg.issueWidth;
    row.cycles = r.cycles;
    row.instructions = r.instructions;
    row.squashedUops = r.squashedUops;
    row.flushes = r.flushes;
    row.flushCyclesOverride = r.overrideStallCycles;
    row.flushCyclesMispredict = r.mispredictWaitCycles;
    row.stallCyclesIcache = r.icacheStallCycles;
    row.stallCyclesBtb = r.btbStallCycles;
    row.robStallCycles = r.robStallCycles;
    return row;
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool)
    : SuiteTraces(ops_per_workload, seed, pool, TraceCache::fromEnv(),
                  false)
{
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool, bool shared_pool)
    : SuiteTraces(ops_per_workload, seed, pool, TraceCache::fromEnv(),
                  shared_pool)
{
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool, TraceCache cache)
    : SuiteTraces(ops_per_workload, seed, pool, std::move(cache),
                  false)
{
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool, TraceCache cache,
                         bool shared_pool)
    : names_(specint2000Names()),
      opsPerWorkload_(ops_per_workload),
      seed_(seed),
      cache_(std::move(cache))
{
    traces_.resize(names_.size());
    std::vector<char> hit(names_.size(), 0);
    // Generation is deterministic per (workload, ops, seed) and each
    // cell writes only its own trace slot, so parallel construction
    // produces the exact traces serial construction would.
    const auto compute = [&](std::size_t i) {
        const auto generate = [&] {
            const auto w = makeWorkload(names_[i]);
            return generateTrace(*w, opsPerWorkload_, seed_);
        };
        if (shared_pool) {
            auto src = SharedTracePool::Source::Generated;
            traces_[i] = SharedTracePool::global().fetch(
                names_[i], opsPerWorkload_, seed_, cache_, generate,
                &src);
            hit[i] =
                src != SharedTracePool::Source::Generated ? 1 : 0;
        } else {
            bool fromCache = false;
            traces_[i] = std::make_shared<const TraceBuffer>(
                cache_.fetch(names_[i], opsPerWorkload_, seed_,
                             generate, &fromCache));
            hit[i] = fromCache ? 1 : 0;
        }
    };
    const auto commit = [&](std::size_t i) {
        if (hit[i])
            ++cacheHits_;
        else
            ++cacheMisses_;
    };
    forEachCell(pool, names_.size(), compute, commit);
}

void
SuiteTraces::describe(obs::RunReport &report) const
{
    report.opsPerWorkload = opsPerWorkload_;
    report.seed = seed_;
}

namespace {

/** Publish describeStats() gauges, tagging names with the workload. */
template <typename Pred>
void
publishPredictorStats(obs::MetricRegistry &reg, const Pred &pred,
                      const std::string &workload)
{
    for (const PredictorStat &s : pred.describeStats()) {
        // Splice the workload label into an existing {label} suffix
        // or append a fresh one.
        std::string name = s.name;
        if (!name.empty() && name.back() == '}')
            name.insert(name.size() - 1, ",workload=" + workload);
        else
            name += "{workload=" + workload + "}";
        reg.gauge(name).set(s.value);
    }
}

/** Trace-cache effectiveness gauges, stamped once per suite sweep. */
void
publishCacheStats(obs::MetricRegistry &reg, const SuiteTraces &suite)
{
    reg.gauge("trace.cache.hits")
        .set(static_cast<double>(suite.cacheHits()));
    reg.gauge("trace.cache.misses")
        .set(static_cast<double>(suite.cacheMisses()));
    reg.gauge("trace.cache.format_version")
        .set(static_cast<double>(suite.cacheFormatVersion()));
}

} // namespace

EnsembleStats
suiteAccuracyReportEnsemble(const SuiteTraces &suite,
                            std::vector<AccuracyCellConfig> &configs,
                            obs::RunReport &report,
                            obs::MetricRegistry *metrics,
                            parallel::CellPool *pool)
{
    suite.describe(report);
    if (metrics)
        publishCacheStats(*metrics, suite);
    const std::size_t nc = configs.size();
    const std::size_t nw = suite.size();

    // Per-cell predictor factory: the per-workload form wins when a
    // config carries one (fault-injection studies seed each cell's
    // plan by workload index).
    const auto makePred = [&configs](std::size_t c, std::size_t w) {
        return configs[c].makeForWorkload
                   ? configs[c].makeForWorkload(w)
                   : configs[c].make();
    };

    // Group configs by concrete *inner* predictor type using one
    // probe instance per config (construction is cheap next to
    // replay; the probes never see a branch). Wrapper chains may
    // differ inside a group — protected / fault-injecting variants
    // batch with their bare siblings via per-member hooks — so a
    // group is batched when every member unwraps to one known inner
    // type, width >= 2, and the escape hatch is off. Everything else
    // runs one (config, workload) cell at a time.
    std::vector<std::vector<std::size_t>> groups;
    {
        std::vector<std::unique_ptr<DirectionPredictor>> probes(nc);
        std::vector<DirectionPredictor *> probePtrs(nc);
        for (std::size_t c = 0; c < nc; ++c) {
            probes[c] = makePred(c, 0);
            probePtrs[c] = probes[c].get();
        }
        std::map<std::type_index, std::size_t> byType;
        std::vector<std::vector<std::size_t>> candidates;
        const bool enabled = ensembleEnabled();
        for (std::size_t c = 0; c < nc; ++c) {
            const std::type_info *inner =
                ensembleAccuracyInnerType(*probePtrs[c]);
            if (!enabled || inner == nullptr) {
                groups.push_back({c});
                continue;
            }
            const std::type_index t(*inner);
            const auto it = byType.find(t);
            if (it == byType.end()) {
                byType.emplace(t, candidates.size());
                candidates.push_back({c});
            } else {
                candidates[it->second].push_back(c);
            }
        }
        for (auto &g : candidates) {
            std::vector<DirectionPredictor *> ptrs;
            for (std::size_t c : g)
                ptrs.push_back(probePtrs[c]);
            if (g.size() >= 2 && ensembleBatchable(ptrs)) {
                groups.push_back(std::move(g));
            } else {
                for (std::size_t c : g)
                    groups.push_back({c});
            }
        }
    }

    EnsembleStats stats;
    for (const auto &g : groups) {
        if (g.size() >= 2) {
            ++stats.groups;
            stats.batchedCells += g.size() * nw;
            stats.batchWidth = std::max(stats.batchWidth, g.size());
        } else {
            stats.serialCells += nw;
        }
    }

    // Compute phase: one cell per (group, workload), fanned out on
    // the pool when one is passed. Each cell builds its own member
    // predictors, so cells stay independent; predictors are kept
    // until the emission phase publishes their describeStats().
    std::vector<std::vector<std::unique_ptr<DirectionPredictor>>>
        preds(nc);
    for (auto &row : preds)
        row.resize(nw);
    for (auto &cfg : configs)
        cfg.results.assign(nw, AccuracyResult{});
    const std::size_t cellCount = groups.size() * nw;
    forEachCell(
        pool, cellCount,
        [&](std::size_t cell) {
            const std::vector<std::size_t> &g =
                groups[cell / nw];
            const std::size_t w = cell % nw;
            std::vector<DirectionPredictor *> members;
            members.reserve(g.size());
            for (std::size_t c : g) {
                preds[c][w] = makePred(c, w);
                members.push_back(preds[c][w].get());
            }
            if (g.size() >= 2 && ensembleBatchable(members)) {
                const auto results =
                    runAccuracyEnsemble(members, suite.trace(w));
                for (std::size_t k = 0; k < g.size(); ++k)
                    configs[g[k]].results[w] = results[k];
            } else {
                for (std::size_t k = 0; k < g.size(); ++k)
                    configs[g[k]].results[w] = runAccuracy(
                        *members[k], suite.trace(w));
            }
        },
        [](std::size_t) {});

    // Emission phase, config-major / workload-minor: the same rows
    // and metrics whichever way the cells were grouped.
    for (std::size_t c = 0; c < nc; ++c) {
        std::vector<double> percents(nw);
        for (std::size_t w = 0; w < nw; ++w) {
            percents[w] = configs[c].results[w].percent();
            report.rows.push_back(
                reportRow(suite.name(w), configs[c].name,
                          configs[c].budgetBytes,
                          configs[c].results[w]));
            if (metrics)
                publishPredictorStats(*metrics, *preds[c][w],
                                      suite.name(w));
            preds[c][w].reset();
        }
        configs[c].meanPercent = arithmeticMean(percents);
    }

    if (metrics) {
        metrics->gauge("core.ensemble.batched_cells")
            .set(static_cast<double>(stats.batchedCells));
        metrics->gauge("core.ensemble.serial_cells")
            .set(static_cast<double>(stats.serialCells));
        metrics->gauge("core.ensemble.groups")
            .set(static_cast<double>(stats.groups));
        metrics->gauge("core.ensemble.batch_width")
            .set(static_cast<double>(stats.batchWidth));
    }
    return stats;
}

EnsembleStats
suiteTimingReportEnsemble(const SuiteTraces &suite,
                          std::vector<TimingCellConfig> &configs,
                          obs::RunReport &report,
                          obs::MetricRegistry *metrics,
                          obs::EventTracer *tracer,
                          parallel::CellPool *pool)
{
    suite.describe(report);
    if (metrics)
        publishCacheStats(*metrics, suite);
    const std::size_t nc = configs.size();
    const std::size_t nw = suite.size();
    for (TimingCellConfig &c : configs)
        c.results.assign(nw, SimResult{});

    // One cell per (config, workload), indexed config-major so the
    // pool's in-order commits emit rows config-major, workload-minor.
    // Each predictor lives from its cell's compute to its commit,
    // where its describeStats() gauges are published. An event
    // tracer records a single ordered stream, so it never fans out.
    std::vector<std::unique_ptr<FetchPredictor>> preds(nc * nw);
    forEachCell(
        tracer ? nullptr : pool, nc * nw,
        [&](std::size_t cell) {
            TimingCellConfig &c = configs[cell / nw];
            const std::size_t w = cell % nw;
            preds[cell] = c.makeForWorkload ? c.makeForWorkload(w)
                                            : c.make();
            c.results[w] =
                runTiming(c.cfg, *preds[cell], suite.trace(w), tracer);
        },
        [&](std::size_t cell) {
            const TimingCellConfig &c = configs[cell / nw];
            const std::size_t w = cell % nw;
            report.rows.push_back(reportRow(suite.name(w), c.name,
                                            c.mode, c.budgetBytes,
                                            c.cfg, c.results[w]));
            if (metrics) {
                c.results[w].publishMetrics(*metrics, suite.name(w));
                publishPredictorStats(*metrics, *preds[cell],
                                      suite.name(w));
            }
            preds[cell].reset();
        });

    for (TimingCellConfig &c : configs) {
        std::vector<double> ipcs(nw);
        for (std::size_t w = 0; w < nw; ++w)
            ipcs[w] = c.results[w].ipc();
        c.harmonicMeanIpc = harmonicMean(ipcs);
    }
    EnsembleStats stats;
    stats.serialCells = nc * nw;
    return stats;
}

Counter
benchOpsPerWorkload(Counter fallback)
{
    if (const char *env = std::getenv("BPSIM_OPS_PER_WORKLOAD")) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<Counter>(v);
    }
    return fallback;
}

} // namespace bpsim

#include "core/runner.hh"

#include <algorithm>
#include <optional>

#include "common/env.hh"
#include "common/stats.hh"
#include "core/dispatch.hh"
#include "core/ensemble.hh"
#include "parallel/cell_pool.hh"
#include "workloads/registry.hh"

namespace bpsim {

namespace {

/**
 * The one accuracy replay loop: walks the trace's dense
 * conditional-branch columns once.
 *
 * Templated over the predictor's *static* type: instantiated once
 * per concrete (final) predictor class via withConcretePredictor so
 * predict/update inline, and once at Pred=DirectionPredictor as the
 * virtual fallback for unknown types.
 */
template <typename Pred>
AccuracyResult
runAccuracyLoop(Pred &pred, const TraceBuffer &trace)
{
    const BranchSpan view = trace.branchView();
    const std::size_t n = view.size();
    const Addr *pcs = view.pcData();
    const std::uint8_t *takens = view.takenData();
    Counter misp = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool taken = takens[i] != 0;
        const bool predicted = pred.predict(pcs[i]);
        pred.update(pcs[i], taken);
        misp += predicted != taken ? 1 : 0;
    }
    AccuracyResult r;
    r.branches = n;
    r.mispredictions = misp;
    return r;
}

} // namespace

AccuracyResult
runAccuracy(DirectionPredictor &pred, const TraceBuffer &trace)
{
    // Monomorphize on the concrete type when known, else run the
    // virtual-dispatch loop. Both paths are the same template, so
    // they cannot diverge semantically.
    AccuracyResult r;
    const bool matched =
        withConcretePredictor(pred, [&](auto &concrete) {
            r = runAccuracyLoop(concrete, trace);
        });
    if (!matched)
        r = runAccuracyLoop(pred, trace);
    return r;
}

AccuracyResult
runAccuracyVirtual(DirectionPredictor &pred, const TraceBuffer &trace)
{
    return runAccuracyLoop(pred, trace);
}

SimResult
runTiming(const CoreConfig &cfg, FetchPredictor &pred,
          const TraceBuffer &trace, obs::EventTracer *tracer)
{
    const PredictionColumn column = predictColumn(pred, trace);
    OooCore core(cfg);
    core.attachTracer(tracer);
    return core.run(trace, column);
}

SimResult
runTiming(const CoreConfig &cfg, FetchPredictor &pred,
          const SuiteTraces &suite, std::size_t w, TimingMemo &memo)
{
    const TraceBuffer &trace = suite.trace(w);
    const PredictionColumn column = predictColumn(pred, trace);
    return memo.time(
        {suite.name(w), suite.opsPerWorkload(), suite.seed(), cfg,
         column.digest()},
        [&] { return OooCore(cfg).run(trace, column); });
}

SimResult
TimingMemo::time(const Key &key,
                 const std::function<SimResult()> &compute)
{
    std::shared_future<SimResult> existing;
    std::promise<SimResult> promise;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.requests;
        std::vector<Entry> &bucket = entries_[key.column];
        const auto it =
            std::find_if(bucket.begin(), bucket.end(),
                         [&](const Entry &e) { return e.key == key; });
        if (it != bucket.end()) {
            existing = it->result;
            const bool finished =
                existing.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready;
            ++(finished ? stats_.hits : stats_.joins);
        } else {
            bucket.push_back({key, promise.get_future().share()});
        }
    }
    if (existing.valid())
        return existing.get();
    try {
        const SimResult r = compute();
        promise.set_value(r);
        return r;
    } catch (...) {
        promise.set_exception(std::current_exception());
        // Not kept: a later request computes afresh.
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<Entry> &bucket = entries_[key.column];
        bucket.erase(std::find_if(
            bucket.begin(), bucket.end(),
            [&](const Entry &e) { return e.key == key; }));
        throw;
    }
}

TimingMemo::Stats
TimingMemo::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
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
    : SuiteTraces(ops_per_workload, seed, pool, TraceCache::fromEnv())
{
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool, TraceCache cache)
    : names_(specint2000Names()),
      opsPerWorkload_(ops_per_workload),
      seed_(seed)
{
    traces_.resize(names_.size());
    std::vector<char> hit(names_.size(), 0);
    // Generation is deterministic per (workload, ops, seed) and each
    // cell writes only its own trace slot, so parallel construction
    // produces the exact traces serial construction would.
    const auto compute = [&](std::size_t i) {
        bool fromCache = false;
        traces_[i] = cache.fetch(
            names_[i], opsPerWorkload_, seed_,
            [&] {
                const auto w = makeWorkload(names_[i]);
                return generateTrace(*w, opsPerWorkload_, seed_);
            },
            &fromCache);
        hit[i] = fromCache ? 1 : 0;
    };
    const auto commit = [&](std::size_t i) {
        if (hit[i])
            ++cacheHits_;
        else
            ++cacheMisses_;
    };
    parallel::CellPool inlinePool(1);
    (pool ? *pool : inlinePool).run(names_.size(), compute, commit);
}

SuiteTraces
SuiteTraces::prefix(Counter ops) const
{
    SuiteTraces view = *this;
    view.opsPerWorkload_ = ops;
    for (TraceBuffer &t : view.traces_)
        t = t.prefix(ops);
    view.cacheHits_ = view.traces_.size();
    view.cacheMisses_ = 0;
    return view;
}

void
SuiteTraces::describe(obs::RunReport &report) const
{
    report.opsPerWorkload = opsPerWorkload_;
    report.seed = seed_;
}

namespace {

/** Publish a predictor's describeStats() list as gauges, tagging
 *  names with the workload. */
void
publishPredictorStats(obs::MetricRegistry &reg,
                      const std::vector<PredictorStat> &stats,
                      const std::string &workload)
{
    for (const PredictorStat &s : stats) {
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

    // Every config whose workload-0 probe is a bare perceptron joins
    // one group, replayed by the perceptron group kernel and listed
    // first (it is the longest cell); every other config is its own
    // cell. The probes never see a branch.
    std::vector<std::vector<std::size_t>> groups;
    std::vector<std::size_t> perceptrons;
    for (std::size_t c = 0; c < nc; ++c) {
        if (dynamic_cast<PerceptronPredictor *>(makePred(c, 0).get()))
            perceptrons.push_back(c);
        else
            groups.push_back({c});
    }
    if (!perceptrons.empty())
        groups.insert(groups.begin(), std::move(perceptrons));

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
    // the pool when one is passed. Cells are indexed workload-major,
    // so one trace's columns stay hot across the groups that replay
    // it. A cell builds its member predictors, replays them, copies
    // their describeStats() when a registry is attached, and frees
    // them before it returns: no predictor outlives its cell.
    std::vector<std::vector<std::vector<PredictorStat>>> predStats(
        metrics ? nc : 0,
        std::vector<std::vector<PredictorStat>>(nw));
    for (auto &cfg : configs)
        cfg.results.assign(nw, AccuracyResult{});
    const std::size_t ng = groups.size();
    parallel::CellPool inlinePool(1);
    (pool ? *pool : inlinePool).run(
        ng * nw,
        [&](std::size_t cell) {
            const std::vector<std::size_t> &g = groups[cell % ng];
            const std::size_t w = cell / ng;
            const TraceBuffer &trace = suite.trace(w);
            std::vector<std::unique_ptr<DirectionPredictor>> preds;
            std::vector<PerceptronPredictor *> batch;
            for (std::size_t c : g) {
                preds.push_back(makePred(c, w));
                if (auto *p = dynamic_cast<PerceptronPredictor *>(
                        preds.back().get()))
                    batch.push_back(p);
            }
            // A per-workload factory may build a different type than
            // its probe, and the kernel refuses members it cannot
            // share history across: both fall back to runAccuracy.
            std::optional<std::vector<AccuracyResult>> batched;
            if (g.size() >= 2 && batch.size() == g.size())
                batched = runPerceptronEnsemble(batch, trace);
            for (std::size_t k = 0; k < g.size(); ++k) {
                configs[g[k]].results[w] =
                    batched ? (*batched)[k]
                            : runAccuracy(*preds[k], trace);
                if (metrics)
                    predStats[g[k]][w] = preds[k]->describeStats();
            }
        });

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
                publishPredictorStats(*metrics, predStats[c][w],
                                      suite.name(w));
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
                          parallel::CellPool *pool, TimingMemo &memo)
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
    // A cell's compute builds its fetch predictor, runs it, copies
    // its describeStats() when a registry is attached, and frees it
    // before it returns; the commit publishes the copy. An event
    // tracer records a single ordered stream, so it never fans out,
    // and it must see every run's events, so it bypasses the memo.
    std::vector<std::vector<PredictorStat>> predStats(
        metrics ? nc * nw : 0);
    parallel::CellPool inlinePool(1);
    (pool && !tracer ? *pool : inlinePool).run(
        nc * nw,
        [&](std::size_t cell) {
            TimingCellConfig &c = configs[cell / nw];
            const std::size_t w = cell % nw;
            const std::unique_ptr<FetchPredictor> pred =
                c.makeForWorkload ? c.makeForWorkload(w) : c.make();
            c.results[w] =
                tracer ? runTiming(c.cfg, *pred, suite.trace(w), tracer)
                       : runTiming(c.cfg, *pred, suite, w, memo);
            if (metrics)
                predStats[cell] = pred->describeStats();
        },
        [&](std::size_t cell) {
            const TimingCellConfig &c = configs[cell / nw];
            const std::size_t w = cell % nw;
            report.rows.push_back(reportRow(suite.name(w), c.name,
                                            c.mode, c.budgetBytes,
                                            c.cfg, c.results[w]));
            if (metrics) {
                c.results[w].publishMetrics(*metrics, suite.name(w));
                publishPredictorStats(*metrics, predStats[cell],
                                      suite.name(w));
            }
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

EnsembleStats
suiteTimingReportEnsemble(const SuiteTraces &suite,
                          std::vector<TimingCellConfig> &configs,
                          obs::RunReport &report,
                          obs::MetricRegistry *metrics,
                          obs::EventTracer *tracer,
                          parallel::CellPool *pool)
{
    TimingMemo memo;
    return suiteTimingReportEnsemble(suite, configs, report, metrics,
                                     tracer, pool, memo);
}

Counter
benchOpsPerWorkload(Counter fallback)
{
    const long long v = positiveEnv("BPSIM_OPS_PER_WORKLOAD");
    return v > 0 ? static_cast<Counter>(v) : fallback;
}

} // namespace bpsim

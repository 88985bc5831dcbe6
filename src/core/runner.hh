/**
 * @file
 * Experiment runners: accuracy-only simulation (Figures 1, 5, 6) and
 * full timing simulation (Figures 2, 7, 8), plus suite-level
 * orchestration over the twelve SPECint stand-ins with the paper's
 * reductions (arithmetic-mean misprediction, harmonic-mean IPC).
 *
 * Every suite loop runs its cells on a parallel::CellPool: the one
 * the caller passes, or a one-job pool that computes each cell
 * inline when none is passed (and for a traced timing suite). Cells
 * may execute concurrently on the pool's workers while rows and
 * metrics are committed in row order on the calling thread, so a
 * parallel run's RunReport is byte-identical to the serial one. The
 * predictor factory closure is then invoked concurrently and must be
 * safe to call from multiple threads (the stock
 * makePredictor/makeFetchPredictor factories are).
 */

#ifndef BPSIM_CORE_RUNNER_HH
#define BPSIM_CORE_RUNNER_HH

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "pipeline/fetch_predictor.hh"
#include "predictors/predictor.hh"
#include "sim/core_config.hh"
#include "sim/ooo_core.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_cache.hh"
#include "workloads/workload.hh"

namespace bpsim {

namespace parallel {
class CellPool;
} // namespace parallel

/** Result of an accuracy-only run. */
struct AccuracyResult
{
    Counter branches = 0;
    Counter mispredictions = 0;

    double
    percent() const
    {
        return branches ? 100.0 * static_cast<double>(mispredictions) /
                              static_cast<double>(branches)
                        : 0.0;
    }
};

/** Replay every conditional branch of @p trace through @p pred. */
AccuracyResult runAccuracy(DirectionPredictor &pred,
                           const TraceBuffer &trace);

/**
 * The virtual-dispatch replay loop, bypassing the monomorphic
 * fast path that runAccuracy() takes for factory-built predictor
 * types. Exists so equivalence tests and microbenchmarks can compare
 * the two paths; results are always identical.
 */
AccuracyResult runAccuracyVirtual(DirectionPredictor &pred,
                                  const TraceBuffer &trace);

/**
 * Run the timing simulator over @p trace with @p pred: the column
 * pass (predictColumn()) and then the core pass (OooCore::run), with
 * per-cycle events recorded into @p tracer when it is not nullptr.
 */
SimResult runTiming(const CoreConfig &cfg, FetchPredictor &pred,
                    const TraceBuffer &trace,
                    obs::EventTracer *tracer = nullptr);

/** Build a RunReport row from one accuracy run. */
obs::RunReport::Row reportRow(const std::string &workload,
                              const std::string &predictor,
                              std::size_t budget_bytes,
                              const AccuracyResult &r);

/** Build a RunReport row from one timing run. */
obs::RunReport::Row reportRow(const std::string &workload,
                              const std::string &predictor,
                              const std::string &mode,
                              std::size_t budget_bytes,
                              const CoreConfig &cfg,
                              const SimResult &r);

/**
 * Generates and caches one trace per SPECint workload so that every
 * predictor configuration in an experiment sees the same streams
 * (the paper's methodology). Trace length and seed are fixed at
 * construction.
 *
 * Traces come from the on-disk TraceCache when one is enabled
 * (BPSIM_TRACE_CACHE, or an explicit cache for tests) and are
 * generated — in parallel across workloads when a pool is passed —
 * otherwise. Generation is deterministic per (workload, ops, seed),
 * so cached, parallel and serial construction all yield identical
 * traces.
 *
 * prefix(ops) serves a shorter suite from a longer one without
 * generating: each trace is cut to its first @c ops ops, which are
 * the trace that generation at that length gives. A sweep builds
 * one suite at the longest length its artifacts ask for and hands
 * each artifact a prefix (bench/artifact_registry.hh). Copies and
 * prefixes share the traces' storage.
 */
class SuiteTraces
{
  public:
    /**
     * @param ops_per_workload Dynamic instructions per workload.
     * @param seed Generation seed.
     * @param pool Optional executor for parallel generation.
     */
    explicit SuiteTraces(Counter ops_per_workload,
                         std::uint64_t seed = 42,
                         parallel::CellPool *pool = nullptr);

    /** As above with an explicit cache instead of BPSIM_TRACE_CACHE. */
    SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                parallel::CellPool *pool, TraceCache cache);

    /** This suite cut to @p ops ops per workload (at most
     *  opsPerWorkload()); see the class comment. Its cache counters
     *  read every workload as a hit, since the view generated
     *  nothing. */
    SuiteTraces prefix(Counter ops) const;

    std::size_t size() const { return traces_.size(); }
    const std::string &name(std::size_t i) const { return names_[i]; }
    const TraceBuffer &trace(std::size_t i) const { return traces_[i]; }
    Counter opsPerWorkload() const { return opsPerWorkload_; }
    std::uint64_t seed() const { return seed_; }

    /** Workloads served without generating: from the on-disk cache,
     *  or by a prefix view of a longer suite. */
    Counter cacheHits() const { return cacheHits_; }
    /** Workloads generated (and stored when a cache is enabled). */
    Counter cacheMisses() const { return cacheMisses_; }

    /** Stamp generation parameters into @p report 's header. */
    void describe(obs::RunReport &report) const;

  private:
    std::vector<std::string> names_;
    std::vector<TraceBuffer> traces_;
    Counter opsPerWorkload_;
    std::uint64_t seed_;
    Counter cacheHits_ = 0;
    Counter cacheMisses_ = 0;
};

/**
 * One configuration of an accuracy sweep: a predictor configuration
 * plus its per-workload outputs. The sweep drivers (fig1/fig5/fig6)
 * build one of these per (kind, budget) and hand the whole list to
 * suiteAccuracyReportEnsemble, which groups same-family configs and
 * replays each group in one pass over every trace.
 */
struct AccuracyCellConfig
{
    AccuracyCellConfig() = default;
    /** Input-only construction, the form the sweep drivers use
     *  (output members start empty). */
    AccuracyCellConfig(
        std::function<std::unique_ptr<DirectionPredictor>()> make_,
        std::string name_, std::size_t budget_bytes)
        : make(std::move(make_)), name(std::move(name_)),
          budgetBytes(budget_bytes)
    {}

    /** Factory for this configuration (fresh instance per workload;
     *  must be callable from pool workers). */
    std::function<std::unique_ptr<DirectionPredictor>()> make;
    /**
     * Optional per-workload factory, taking the suite workload
     * index; wins over @c make when set. The fault-injection studies
     * use this to give every (config, workload) cell its own seeded
     * FaultPlan. The built type must not depend on the index — the
     * grouping probe keys on workload 0's instance.
     */
    std::function<std::unique_ptr<DirectionPredictor>(std::size_t)>
        makeForWorkload;
    /** Predictor name for report rows. */
    std::string name;
    /** Hardware budget for report rows. */
    std::size_t budgetBytes = 0;

    // Outputs, filled by suiteAccuracyReportEnsemble:
    /** Arithmetic-mean misprediction percent across the suite. */
    double meanPercent = 0.0;
    /** Per-workload results, in suite workload order. */
    std::vector<AccuracyResult> results;
};

/** How a suite sweep executed (published as core.ensemble.*). */
struct EnsembleStats
{
    /** (config x workload) cells replayed inside a batched group. */
    std::size_t batchedCells = 0;
    /** Cells replayed one at a time through runAccuracy(). */
    std::size_t serialCells = 0;
    /** Batched groups formed. */
    std::size_t groups = 0;
    /** Widest batched group (member count). */
    std::size_t batchWidth = 0;
};

/**
 * The accuracy suite entry point: run every configuration in
 * @p configs over @p suite, append one report row per (config,
 * workload) — config-major, workload-minor, after all cells compute
 * — publish each predictor instance's describeStats() gauges and the
 * trace-cache gauges into @p metrics when non-null, and fill each
 * config's results/meanPercent. A single configuration is simply a
 * one-element list.
 *
 * Bare perceptron configs are batched through the perceptron group
 * kernel (core/ensemble.hh), one cell per workload; every other
 * config replays one (config, workload) cell at a time through
 * runAccuracy(). Rows, results and metrics (bar the core.ensemble.*
 * gauges) are byte-identical to one single-config sweep per config.
 * No predictor outlives its cell: the cell frees its predictors once
 * replayed, after copying their describeStats() when @p metrics is
 * non-null, so a call holds at most one cell's predictors per worker.
 */
EnsembleStats suiteAccuracyReportEnsemble(
    const SuiteTraces &suite,
    std::vector<AccuracyCellConfig> &configs,
    obs::RunReport &report, obs::MetricRegistry *metrics = nullptr,
    parallel::CellPool *pool = nullptr);

/**
 * One configuration of a timing sweep: a fetch-predictor
 * configuration plus core parameters and per-workload outputs. The
 * timing sweep drivers (fig2/fig7/fig8 and the pipeline/delay
 * ablations) build one per (kind, mode, budget), in report row
 * order, and hand the whole list to suiteTimingReportEnsemble.
 */
struct TimingCellConfig
{
    TimingCellConfig() = default;
    /** Input-only construction, the form the sweep drivers use
     *  (output members start empty). */
    TimingCellConfig(
        std::function<std::unique_ptr<FetchPredictor>()> make_,
        std::string name_, std::string mode_,
        std::size_t budget_bytes, CoreConfig cfg_)
        : make(std::move(make_)), name(std::move(name_)),
          mode(std::move(mode_)), budgetBytes(budget_bytes),
          cfg(cfg_)
    {}

    /** Factory for this configuration (fresh instance per workload;
     *  must be callable from pool workers). */
    std::function<std::unique_ptr<FetchPredictor>()> make;
    /**
     * Optional per-workload factory, taking the suite workload
     * index; wins over @c make when set. The fault-injection studies
     * use this to give every (config, workload) cell its own seeded
     * FaultPlan.
     */
    std::function<std::unique_ptr<FetchPredictor>(std::size_t)>
        makeForWorkload;
    /** Predictor name for report rows. */
    std::string name;
    /** Delay-mode string for report rows. */
    std::string mode;
    /** Hardware budget for report rows. */
    std::size_t budgetBytes = 0;
    /** Core parameters for this cell (per-cell: the pipeline-depth
     *  study sweeps cells whose cores differ). */
    CoreConfig cfg;

    // Outputs, filled by suiteTimingReportEnsemble:
    /** Harmonic-mean IPC across the suite (Figure 7/8 reduction). */
    double harmonicMeanIpc = 0.0;
    /** Per-workload results, in suite workload order. */
    std::vector<SimResult> results;
};

/**
 * Times each distinct timing cell once.
 *
 * A core pass is a pure function of the trace, the core
 * configuration and the prediction column, so two cells that agree
 * on all three time identically: fig2's cells reappear in fig7, and
 * gshare.fast's overriding cells equal its ideal ones (E7). The memo
 * keys each core pass on all three and hands later requests the
 * first request's SimResult. Concurrent requests for a key being
 * computed wait for that computation (a join) instead of repeating
 * it; a computation that throws rethrows to every waiter and is not
 * kept.
 *
 * Scope is the owner's choice and never process-wide: one
 * suiteTimingReportEnsemble call, one standalone artifact, or one
 * whole bpsweep invocation.
 */
class TimingMemo
{
  public:
    /** What identifies a core pass. */
    struct Key
    {
        /** The trace: SuiteTraces generates it deterministically
         *  from (workload, ops, seed). */
        std::string workload;
        Counter ops = 0;
        std::uint64_t seed = 0;
        /** Compared field by field. */
        CoreConfig cfg;
        /** Digest of the prediction column (its length included). */
        Digest128 column;

        bool operator==(const Key &) const = default;
    };

    struct Stats
    {
        /** Core passes asked for. */
        Counter requests = 0;
        /** Requests served from a finished entry. */
        Counter hits = 0;
        /** Requests that waited on an in-flight computation. */
        Counter joins = 0;
    };

    TimingMemo() = default;
    TimingMemo(const TimingMemo &) = delete;
    TimingMemo &operator=(const TimingMemo &) = delete;

    /** The core pass for @p key: @p compute runs on the first
     *  request only. Thread-safe. */
    SimResult time(const Key &key,
                   const std::function<SimResult()> &compute);

    Stats stats() const;

  private:
    struct Entry
    {
        Key key;
        std::shared_future<SimResult> result;
    };

    mutable std::mutex mu_;
    /** Entries bucketed by column digest; a bucket holds the keys
     *  that share a column but differ elsewhere. */
    std::map<Digest128, std::vector<Entry>> entries_;
    Stats stats_;
};

/**
 * One suite cell's timing run: the column pass of @p pred over
 * workload @p w of @p suite, then the core pass through @p memo (the
 * column lives only for this call).
 */
SimResult runTiming(const CoreConfig &cfg, FetchPredictor &pred,
                    const SuiteTraces &suite, std::size_t w,
                    TimingMemo &memo);

/**
 * The timing suite entry point: run every configuration in
 * @p configs over @p suite, one pool cell per (config, workload).
 * Each cell builds a fresh predictor and runs it through the
 * memoized runTiming() above, so a core pass that an earlier cell
 * already timed — in this call or, for a longer-lived memo, an
 * earlier one — is not repeated. The cell frees its predictor before
 * it returns, after copying its describeStats() when @p metrics is
 * non-null, so a call holds at most one predictor per worker. Appends one report row per cell —
 * config-major, workload-minor, after all cells compute — publishes
 * each run's SimResult counters and the fetch predictor's
 * describeStats() gauges into @p metrics (when non-null) under
 * `{workload=...}` labels, and fills each config's
 * results/harmonicMeanIpc. Rows and metrics are the same with or
 * without memo hits. A non-null @p tracer records every run's
 * events, bypasses the memo (every run is simulated, so every event
 * is recorded) and forces serial execution (the event stream is
 * ordered). Returns EnsembleStats{serialCells = configs x
 * workloads}.
 */
EnsembleStats suiteTimingReportEnsemble(
    const SuiteTraces &suite, std::vector<TimingCellConfig> &configs,
    obs::RunReport &report, obs::MetricRegistry *metrics,
    obs::EventTracer *tracer, parallel::CellPool *pool,
    TimingMemo &memo);

/** As above, with a memo that lives for this call only. */
EnsembleStats suiteTimingReportEnsemble(
    const SuiteTraces &suite, std::vector<TimingCellConfig> &configs,
    obs::RunReport &report, obs::MetricRegistry *metrics = nullptr,
    obs::EventTracer *tracer = nullptr,
    parallel::CellPool *pool = nullptr);

/**
 * Default trace length for benches; reads BPSIM_OPS_PER_WORKLOAD
 * from the environment (so the sweeps can be scaled up to
 * paper-length runs) and falls back to @p fallback.
 */
Counter benchOpsPerWorkload(Counter fallback = 400000);

} // namespace bpsim

#endif // BPSIM_CORE_RUNNER_HH

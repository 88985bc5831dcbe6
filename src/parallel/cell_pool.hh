/**
 * @file
 * The one executor of suite cells.
 *
 * Every reproduction artifact walks a (predictor x budget x workload)
 * grid whose cells are embarrassingly parallel: each cell constructs
 * its own predictor, reads a shared immutable trace and produces one
 * RunReport row. A CellPool runs those cells while keeping every
 * observable output identical to a serial run:
 *
 *  - cells are enumerated with stable indices [0, count);
 *  - compute(i) may run concurrently on worker threads and must only
 *    write cell-private state (its result slot);
 *  - commit(i) runs on the *calling* thread in strict index order, so
 *    report rows and metric publication happen in exactly the serial
 *    sequence.
 *
 * Where compute(i) runs depends on how the pool was built:
 *
 *  - CellPool(jobs) with jobs <= 1 has no workers: the commit loop
 *    computes cell i inline, then commits it, on the calling thread.
 *  - CellPool(jobs) with jobs > 1 owns a private SweepScheduler whose
 *    workers start lazily, never more than the cells queued so far.
 *  - CellPool(scheduler, label) is one participant of a shared
 *    scheduler (bpsweep): its cells always run on that scheduler's
 *    workers, even a 1-cell run at jobs == 1.
 *
 * A compute or commit failure cancels the remaining unclaimed cells,
 * waits out the in-flight ones and rethrows the lowest-index failure,
 * matching where a serial loop would have stopped. Other participants
 * of a shared scheduler are unaffected.
 */

#ifndef BPSIM_PARALLEL_CELL_POOL_HH
#define BPSIM_PARALLEL_CELL_POOL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "parallel/sweep_scheduler.hh"

namespace bpsim::parallel {

/**
 * Accumulated execution statistics of a CellPool, across every run()
 * it has served. jobs / cellsCompleted / runs / maxQueueDepth are
 * deterministic for a given campaign; the wall-clock figures are not
 * (and therefore are only ever published into bench-level reports,
 * never compared by the determinism gates).
 */
struct PoolStats
{
    unsigned jobs = 1;          ///< worker budget of the pool
    Counter cellsCompleted = 0; ///< compute() calls that finished OK
    Counter runs = 0;           ///< run() invocations served
    /** Largest backlog beyond the worker budget a run started with
     *  (cells that had to queue behind a busy worker). */
    std::size_t maxQueueDepth = 0;
    double wallMs = 0.0; ///< total wall time inside run()
    double busyMs = 0.0; ///< summed per-cell compute wall time
    /** Per-cell compute wall times, in completion-commit order. */
    std::vector<double> cellMs;

    /** busyMs / (wallMs * jobs): 1.0 = every worker always busy. */
    double utilization() const;

    /** Export as `<prefix>.*` gauges/counters/histograms. */
    void publish(obs::MetricRegistry &reg,
                 const std::string &prefix = "parallel.pool") const;
};

/** max(1, std::thread::hardware_concurrency()). */
unsigned hardwareJobs();

/** Parse BPSIM_JOBS; 0 when unset, not a positive integer, or too
 *  large for an unsigned. */
unsigned envJobs();

/**
 * Worker budget to use for @p requested: a positive request wins,
 * otherwise BPSIM_JOBS, otherwise the hardware concurrency.
 */
unsigned resolveJobs(unsigned requested);

/** Runs indexed cells with deterministic commit order; see file
 *  comment. */
class CellPool
{
  public:
    /** A standalone pool.
     *  @param jobs Worker budget; 0 resolves via resolveJobs().
     *  @param label Name cell spans carry when a flight recorder
     *  (obs::SpanRecorder) is installed; typically the artifact. */
    explicit CellPool(unsigned jobs = 0, std::string label = "pool");

    /** A participant of @p scheduler, which must outlive the pool;
     *  jobs() is the scheduler's budget. */
    CellPool(SweepScheduler &scheduler, std::string label);

    CellPool(const CellPool &) = delete;
    CellPool &operator=(const CellPool &) = delete;

    ~CellPool();

    unsigned jobs() const { return jobs_; }
    const std::string &label() const { return label_; }

    /**
     * Execute @p compute for every index in [0, @p count), invoking
     * @p commit (when non-empty) on the calling thread in strict
     * index order as results become ready. Either callback throwing
     * cancels outstanding cells and rethrows the lowest-index failure
     * once no cell of this run is still executing.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &compute,
             const std::function<void(std::size_t)> &commit = {});

    /** Stats accumulated over every run() so far. */
    const PoolStats &stats() const { return stats_; }

  private:
    unsigned jobs_;
    std::string label_;
    std::unique_ptr<SweepScheduler> own_; ///< standalone, jobs > 1
    /** own_ or the shared scheduler; nullptr computes inline. */
    SweepScheduler *sched_ = nullptr;
    SweepScheduler::QueuePtr queue_;
    PoolStats stats_;
};

} // namespace bpsim::parallel

#endif // BPSIM_PARALLEL_CELL_POOL_HH

/**
 * @file
 * Deterministic task-pool execution of suite cells.
 *
 * Every reproduction artifact walks a (predictor x budget x workload)
 * grid whose cells are embarrassingly parallel: each cell constructs
 * its own predictor, reads a shared immutable trace and produces one
 * RunReport row. The CellPool runs those cells on N worker threads
 * while keeping every observable output identical to a serial run:
 *
 *  - cells are enumerated with stable indices [0, count);
 *  - compute(i) runs concurrently on the workers and must only write
 *    cell-private state (its result slot);
 *  - commit(i) runs on the *calling* thread in strict index order, so
 *    report rows and metric publication happen in exactly the serial
 *    sequence.
 *
 * With jobs == 1 (or a single cell) no threads are spawned at all —
 * compute/commit alternate inline, byte-for-byte the serial code path.
 * A compute or commit failure cancels the remaining unclaimed cells,
 * joins the workers and rethrows the first failure in index order,
 * matching where a serial loop would have stopped.
 */

#ifndef BPSIM_PARALLEL_CELL_POOL_HH
#define BPSIM_PARALLEL_CELL_POOL_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

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

/** Parse BPSIM_JOBS; 0 when unset or not a positive integer. */
unsigned envJobs();

/**
 * Worker budget to use for @p requested: a positive request wins,
 * otherwise BPSIM_JOBS, otherwise the hardware concurrency.
 */
unsigned resolveJobs(unsigned requested);

/** Runs indexed cells with deterministic commit order; see file
 *  comment. run() is virtual so executors with a different worker
 *  organization (the cross-artifact SweepPool in sweep_scheduler.hh)
 *  can slot into every suite helper that takes a CellPool*. */
class CellPool
{
  public:
    /** @param jobs Worker budget; 0 resolves via resolveJobs().
     *  @param label Name cell spans carry when a flight recorder
     *  (obs::SpanRecorder) is installed; typically the artifact. */
    explicit CellPool(unsigned jobs = 0, std::string label = "pool");

    CellPool(const CellPool &) = delete;
    CellPool &operator=(const CellPool &) = delete;

    virtual ~CellPool() = default;

    unsigned jobs() const { return jobs_; }
    const std::string &label() const { return label_; }

    /**
     * Execute @p compute for every index in [0, @p count) across the
     * workers, invoking @p commit (when non-empty) on the calling
     * thread in strict index order as results become ready. Either
     * callback throwing cancels outstanding cells and rethrows the
     * lowest-index failure after the workers are joined.
     */
    virtual void run(std::size_t count,
                     const std::function<void(std::size_t)> &compute,
                     const std::function<void(std::size_t)> &commit = {});

    /** Stats accumulated over every run() so far. */
    const PoolStats &stats() const { return stats_; }

  protected:
    PoolStats stats_;

  private:
    void runSerial(std::size_t count,
                   const std::function<void(std::size_t)> &compute,
                   const std::function<void(std::size_t)> &commit);

    unsigned jobs_;
    std::string label_;
};

} // namespace bpsim::parallel

#endif // BPSIM_PARALLEL_CELL_POOL_HH

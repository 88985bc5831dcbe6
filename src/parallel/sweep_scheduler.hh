/**
 * @file
 * Cross-artifact work stealing for one-process sweeps (bpsweep).
 *
 * A SweepScheduler owns the process's worker threads. Each artifact
 * participating in the sweep gets a SweepPool — a CellPool whose
 * run() enqueues its cells onto the artifact's own deque inside the
 * scheduler instead of spawning private workers. Workers are sticky:
 * a worker keeps draining the deque it last served (warm predictor
 * code, warm traces) and steals from the deque with the most pending
 * cells only when its own runs dry, so long-pole artifacts (fig7's
 * 576 timing cells) keep every core busy while short ones drain.
 *
 * Determinism is inherited from the CellPool contract, per artifact:
 * compute(i) runs on whichever worker claims the cell, commit(i)
 * runs on the artifact's driver thread in strict index order. Which
 * worker computed a cell, and in which global interleaving, is
 * invisible to the committed rows — so each artifact's RunReport is
 * byte-identical to its standalone `--jobs N` run (the report-diff
 * gate in CI holds this).
 *
 * Exception semantics also match CellPool exactly: a compute or
 * commit failure cancels the artifact's unclaimed cells, waits out
 * its in-flight ones, and rethrows the lowest-index failure. Other
 * artifacts sharing the scheduler are unaffected.
 *
 * Observability: when a flight recorder is installed
 * (obs::SpanRecorder::install, bpsweep --timeline) the workers name
 * their timeline tracks, record an idle span for every empty-deque
 * wait and a steal instant for every deque switch, and SweepPool
 * wraps each cell compute in a span tagged artifact + cell index.
 * None of it is observable to the committed rows; without a recorder
 * each site is a branch on a null pointer.
 *
 * Lifetime: every SweepPool must be destroyed before its scheduler.
 */

#ifndef BPSIM_PARALLEL_SWEEP_SCHEDULER_HH
#define BPSIM_PARALLEL_SWEEP_SCHEDULER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "parallel/cell_pool.hh"

namespace bpsim::parallel {

/** Aggregate scheduler statistics (across all participants). */
struct SweepSchedulerStats
{
    unsigned jobs = 1;     ///< global worker budget
    Counter cells = 0;     ///< cells executed by the workers
    Counter steals = 0;    ///< cells taken after switching deques
    /** Most participant deques that simultaneously held work. */
    std::size_t peakActiveQueues = 0;

    /** Export as `<prefix>.*` gauges/counters. The default prefix
     *  keeps them with the other host-dependent `parallel.*`
     *  metrics: steals and peak queues vary between runs. */
    void publish(obs::MetricRegistry &reg,
                 const std::string &prefix = "parallel.scheduler") const;
};

/** Point-in-time view of one participant's deque (for live progress
 *  display; values race the workers and are only for humans). */
struct SweepQueueProgress
{
    std::string label;
    Counter enqueued = 0;     ///< cells ever enqueued on this deque
    Counter done = 0;         ///< cells finished on this deque
    std::size_t pending = 0;  ///< enqueued, not yet claimed
    std::size_t inFlight = 0; ///< claimed, not yet finished
};

/** Point-in-time view of the whole scheduler. */
struct SweepProgress
{
    unsigned jobs = 1;            ///< worker budget
    std::size_t busyWorkers = 0;  ///< workers executing a cell now
    Counter cellsDone = 0;        ///< cells finished, all deques ever
    std::vector<SweepQueueProgress> queues; ///< live deques only
};

class SweepPool;

/** Shared worker pool with per-participant deques; see file
 *  comment. */
class SweepScheduler
{
  public:
    /** @param jobs Global worker budget; 0 resolves via
     *  resolveJobs() (--jobs / BPSIM_JOBS / hardware). */
    explicit SweepScheduler(unsigned jobs = 0);

    SweepScheduler(const SweepScheduler &) = delete;
    SweepScheduler &operator=(const SweepScheduler &) = delete;

    /** Joins the workers; all SweepPools must be gone by now. */
    ~SweepScheduler();

    unsigned jobs() const { return jobs_; }

    /** Snapshot of the aggregate counters. */
    SweepSchedulerStats stats() const;

    /** Racy-but-consistent snapshot for live progress display. */
    SweepProgress progress() const;

  private:
    friend class SweepPool;

    /** One participant's deque. Guarded by the scheduler mutex. */
    struct Queue
    {
        std::string label;
        std::deque<std::function<void()>> tasks;
        std::size_t inFlight = 0; ///< claimed, not yet finished
        Counter enqueued = 0;     ///< cells ever enqueued
        Counter done = 0;         ///< cells finished
    };
    using QueuePtr = std::shared_ptr<Queue>;

    QueuePtr addQueue(std::string label);
    void removeQueue(const QueuePtr &q);
    void enqueue(Queue &q, std::vector<std::function<void()>> tasks);
    /** Drop @p q's unclaimed tasks; returns how many were dropped. */
    std::size_t cancelPending(Queue &q);
    /** Block until @p q has no pending or in-flight tasks. */
    void drain(Queue &q);

    void workerLoop(unsigned index);
    /** Next deque to serve: the sticky one while it has work, else
     *  the one with the most pending cells (the long pole). Must be
     *  called with mu_ held; nullptr when everything is empty. */
    QueuePtr pickLocked(const QueuePtr &served) const;

    mutable std::mutex mu_;
    std::condition_variable work_; ///< workers: new tasks / stop
    std::condition_variable idle_; ///< drivers: a queue drained
    std::vector<QueuePtr> queues_;
    std::vector<std::thread> workers_;
    unsigned jobs_;
    bool stop_ = false;
    Counter cells_ = 0;
    Counter steals_ = 0;
    std::size_t peakActiveQueues_ = 0;
};

/**
 * A CellPool view onto one participant's deque of a SweepScheduler.
 * Drop-in for every suite helper taking a CellPool*: jobs() reports
 * the scheduler's global budget, run() keeps the CellPool commit
 * order and exception contract, and stats() accumulates the same
 * deterministic fields (cellsCompleted/runs/jobs/maxQueueDepth) a
 * standalone CellPool at the same budget would report.
 *
 * Unlike CellPool, cells always execute on the scheduler's workers —
 * even a 1-cell run and even at jobs == 1, where the single global
 * worker serializes the whole sweep. Must not outlive the scheduler.
 */
class SweepPool final : public CellPool
{
  public:
    SweepPool(SweepScheduler &scheduler, std::string label);
    ~SweepPool() override;

    void run(std::size_t count,
             const std::function<void(std::size_t)> &compute,
             const std::function<void(std::size_t)> &commit =
                 {}) override;

  private:
    SweepScheduler &sched_;
    SweepScheduler::QueuePtr queue_;
};

} // namespace bpsim::parallel

#endif // BPSIM_PARALLEL_SWEEP_SCHEDULER_HH

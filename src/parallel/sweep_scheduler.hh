/**
 * @file
 * The worker threads a CellPool with workers runs its cells on.
 *
 * A SweepScheduler owns worker threads and one deque per participant
 * (a CellPool). A standalone CellPool at jobs > 1 owns a private
 * scheduler with itself as the only participant; bpsweep builds one
 * scheduler for the whole sweep and gives each artifact a CellPool on
 * it, so one set of workers drains every artifact's cells. Workers
 * start lazily: each enqueue starts at most as many as it queued
 * cells, up to the budget, so workers never outnumber the cells
 * queued so far.
 *
 * Workers are sticky: a worker keeps draining the deque it last
 * served (warm predictor code, warm traces) and steals from the deque
 * with the most pending cells only when its own runs dry, so
 * long-pole artifacts (fig7's 576 timing cells) keep every core busy
 * while short ones drain. Which worker computed a cell is invisible
 * to the committed rows: the CellPool commits in index order on its
 * own calling thread (cell_pool.hh).
 *
 * Observability: when a flight recorder is installed
 * (obs::SpanRecorder::install, bpsweep --timeline) the workers name
 * their timeline tracks, record an idle span for every empty-deque
 * wait and a steal instant for every deque switch. Without a
 * recorder each site is a branch on a null pointer.
 *
 * Lifetime: every CellPool on a scheduler must be destroyed before
 * it.
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

/** Point-in-time totals over the live participants, for a live
 *  progress display (values race the workers; only for humans). */
struct SweepProgress
{
    unsigned jobs = 1;           ///< worker budget
    std::size_t busyWorkers = 0; ///< workers executing a cell now
    Counter enqueued = 0;        ///< cells ever enqueued
    Counter done = 0;            ///< cells finished
};

class CellPool;

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

    /** Joins the workers; all CellPools on it must be gone by now. */
    ~SweepScheduler();

    unsigned jobs() const { return jobs_; }

    /** Snapshot of the aggregate counters. */
    SweepSchedulerStats stats() const;

    /** Racy-but-consistent snapshot for live progress display. */
    SweepProgress progress() const;

  private:
    friend class CellPool;

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
    /** Queue @p tasks on @p q, first starting workers up to
     *  min(jobs, workers + tasks). */
    void enqueue(Queue &q, std::vector<std::function<void()>> tasks);
    /** Drop @p q's unclaimed tasks. */
    void cancelPending(Queue &q);
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
    std::vector<std::thread> workers_; ///< grows under mu_
    unsigned jobs_;
    bool stop_ = false;
    Counter cells_ = 0;
    Counter steals_ = 0;
    std::size_t peakActiveQueues_ = 0;
};

} // namespace bpsim::parallel

#endif // BPSIM_PARALLEL_SWEEP_SCHEDULER_HH

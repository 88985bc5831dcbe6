#include "parallel/sweep_scheduler.hh"

#include <algorithm>
#include <utility>

#include "obs/span_trace.hh"
#include "parallel/cell_pool.hh"

namespace bpsim::parallel {

void
SweepSchedulerStats::publish(obs::MetricRegistry &reg,
                             const std::string &prefix) const
{
    reg.gauge(prefix + ".jobs").set(static_cast<double>(jobs));
    reg.counter(prefix + ".cells").set(cells);
    reg.counter(prefix + ".steals").set(steals);
    reg.gauge(prefix + ".peak_active_queues")
        .set(static_cast<double>(peakActiveQueues));
}

SweepScheduler::SweepScheduler(unsigned jobs)
    : jobs_(resolveJobs(jobs))
{
}

SweepScheduler::~SweepScheduler()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_.notify_all();
    // No enqueue can race this: every participant is gone.
    for (auto &w : workers_)
        w.join();
}

SweepSchedulerStats
SweepScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    SweepSchedulerStats s;
    s.jobs = jobs_;
    s.cells = cells_;
    s.steals = steals_;
    s.peakActiveQueues = peakActiveQueues_;
    return s;
}

SweepScheduler::QueuePtr
SweepScheduler::addQueue(std::string label)
{
    auto q = std::make_shared<Queue>();
    q->label = std::move(label);
    std::lock_guard<std::mutex> lock(mu_);
    queues_.push_back(q);
    return q;
}

void
SweepScheduler::removeQueue(const QueuePtr &q)
{
    std::lock_guard<std::mutex> lock(mu_);
    queues_.erase(std::remove(queues_.begin(), queues_.end(), q),
                  queues_.end());
}

SweepProgress
SweepScheduler::progress() const
{
    std::lock_guard<std::mutex> lock(mu_);
    SweepProgress p;
    p.jobs = jobs_;
    for (const auto &q : queues_) {
        p.busyWorkers += q->inFlight;
        p.enqueued += q->enqueued;
        p.done += q->done;
    }
    return p;
}

void
SweepScheduler::enqueue(Queue &q,
                        std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Start workers before queueing: if a thread cannot start,
        // nothing referencing the caller's frame is left queued.
        const std::size_t want =
            std::min<std::size_t>(jobs_, workers_.size() + tasks.size());
        while (workers_.size() < want) {
            const auto index = static_cast<unsigned>(workers_.size());
            workers_.emplace_back([this, index] { workerLoop(index); });
        }
        q.enqueued += tasks.size();
        for (auto &t : tasks)
            q.tasks.push_back(std::move(t));
        std::size_t active = 0;
        for (const auto &qp : queues_)
            if (!qp->tasks.empty() || qp->inFlight > 0)
                ++active;
        peakActiveQueues_ = std::max(peakActiveQueues_, active);
    }
    work_.notify_all();
}

void
SweepScheduler::cancelPending(Queue &q)
{
    std::lock_guard<std::mutex> lock(mu_);
    q.tasks.clear();
}

void
SweepScheduler::drain(Queue &q)
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock,
               [&] { return q.tasks.empty() && q.inFlight == 0; });
}

SweepScheduler::QueuePtr
SweepScheduler::pickLocked(const QueuePtr &served) const
{
    if (served && !served->tasks.empty())
        return served;
    QueuePtr best;
    for (const auto &q : queues_)
        if (!q->tasks.empty() &&
            (!best || q->tasks.size() > best->tasks.size()))
            best = q;
    return best;
}

void
SweepScheduler::workerLoop(unsigned index)
{
    obs::SpanRecorder::nameThisThread("worker " +
                                      std::to_string(index));
    std::unique_lock<std::mutex> lock(mu_);
    QueuePtr served;
    for (;;) {
        QueuePtr q = pickLocked(served);
        if (!q) {
            if (stop_)
                return;
            // An empty-deque wait is exactly the idle gap the
            // timeline should show; recording is two thread-local
            // stores, so doing it with mu_ held is harmless.
            if (obs::SpanRecorder *rec = obs::SpanRecorder::current()) {
                const std::uint64_t t0 = rec->nowNs();
                work_.wait(lock);
                rec->span("sched", "idle", t0, rec->nowNs() - t0);
            } else {
                work_.wait(lock);
            }
            continue;
        }
        if (served && q != served) {
            ++steals_;
            obs::spanInstant("steal", q->label);
        }
        served = q;
        auto task = std::move(q->tasks.front());
        q->tasks.pop_front();
        ++q->inFlight;
        ++cells_;
        lock.unlock();
        task();
        lock.lock();
        ++q->done;
        if (--q->inFlight == 0 && q->tasks.empty())
            idle_.notify_all();
    }
}

} // namespace bpsim::parallel

#include "parallel/cell_pool.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "common/env.hh"
#include "obs/span_trace.hh"

namespace bpsim::parallel {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace

double
PoolStats::utilization() const
{
    const double capacity = wallMs * static_cast<double>(jobs);
    return capacity > 0.0 ? busyMs / capacity : 0.0;
}

void
PoolStats::publish(obs::MetricRegistry &reg,
                   const std::string &prefix) const
{
    reg.counter(prefix + ".cells_completed").set(cellsCompleted);
    reg.counter(prefix + ".runs").set(runs);
    reg.gauge(prefix + ".jobs").set(static_cast<double>(jobs));
    reg.gauge(prefix + ".max_queue_depth")
        .set(static_cast<double>(maxQueueDepth));
    reg.gauge(prefix + ".wall_ms").set(wallMs);
    reg.gauge(prefix + ".busy_ms").set(busyMs);
    reg.gauge(prefix + ".utilization").set(utilization());
    auto &hist = reg.histogram(prefix + ".cell_wall_ms");
    for (double ms : cellMs)
        hist.record(static_cast<std::uint64_t>(ms < 0.0 ? 0.0 : ms));
}

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
envJobs()
{
    const long long v = positiveEnv("BPSIM_JOBS");
    return v <= std::numeric_limits<unsigned>::max()
               ? static_cast<unsigned>(v)
               : 0;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const unsigned env = envJobs())
        return env;
    return hardwareJobs();
}

CellPool::CellPool(unsigned jobs, std::string label)
    : jobs_(resolveJobs(jobs)), label_(std::move(label))
{
    if (jobs_ > 1) {
        own_ = std::make_unique<SweepScheduler>(jobs_);
        sched_ = own_.get();
        queue_ = sched_->addQueue(label_);
    }
    stats_.jobs = jobs_;
}

CellPool::CellPool(SweepScheduler &scheduler, std::string label)
    : jobs_(scheduler.jobs()),
      label_(std::move(label)),
      sched_(&scheduler),
      queue_(scheduler.addQueue(label_))
{
    stats_.jobs = jobs_;
}

CellPool::~CellPool()
{
    // run() always drains before returning, so the deque is idle.
    if (sched_)
        sched_->removeQueue(queue_);
}

void
CellPool::run(std::size_t count,
              const std::function<void(std::size_t)> &compute,
              const std::function<void(std::size_t)> &commit)
{
    ++stats_.runs;
    const auto runStart = Clock::now();
    if (jobs_ > 1 && count > jobs_)
        stats_.maxQueueDepth =
            std::max(stats_.maxQueueDepth, count - jobs_);

    struct Slot
    {
        bool ready = false; ///< guarded by mu
        double ms = 0.0;
        std::exception_ptr error;
    };
    std::vector<Slot> slots(count);
    std::mutex mu;
    std::condition_variable ready;
    const auto computeCell = [&](std::size_t i) {
        Slot s;
        const auto t0 = Clock::now();
        try {
            obs::SpanScope cellSpan("cell", label_, "cell", i);
            compute(i);
        } catch (...) {
            s.error = std::current_exception();
        }
        s.ms = msSince(t0);
        s.ready = true;
        {
            std::lock_guard<std::mutex> lock(mu);
            slots[i] = std::move(s);
        }
        ready.notify_all();
    };

    // The queued tasks reference this frame: run() returns only after
    // drain() below, and cancelled tasks are dropped unexecuted.
    if (sched_) {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            tasks.push_back([&computeCell, i] { computeCell(i); });
        sched_->enqueue(*queue_, std::move(tasks));
    }

    // In-order committer: the calling thread takes each cell in index
    // order (computing it first when there are no workers), so rows,
    // metrics and checkpoints land in exactly the serial sequence no
    // matter how the workers interleave.
    std::exception_ptr failure;
    for (std::size_t i = 0; i < count && !failure; ++i) {
        if (!sched_)
            computeCell(i);
        Slot s;
        {
            std::unique_lock<std::mutex> lock(mu);
            if (!slots[i].ready) {
                obs::SpanScope waitSpan("commit_wait", label_, "cell",
                                        i);
                ready.wait(lock, [&] { return slots[i].ready; });
            }
            s = std::move(slots[i]);
        }
        if (s.error) {
            failure = s.error;
            break;
        }
        stats_.busyMs += s.ms;
        stats_.cellMs.push_back(s.ms);
        ++stats_.cellsCompleted;
        if (commit) {
            try {
                commit(i);
            } catch (...) {
                failure = std::current_exception();
            }
        }
    }

    if (sched_) {
        if (failure)
            sched_->cancelPending(*queue_);
        sched_->drain(*queue_);
    }
    stats_.wallMs += msSince(runStart);
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace bpsim::parallel

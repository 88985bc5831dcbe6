#include "trace/shared_trace_pool.hh"

#include <utility>

#include "common/env.hh"
#include "obs/span_trace.hh"

namespace bpsim {

void
SharedTracePool::Stats::publish(obs::MetricRegistry &reg,
                                const std::string &prefix) const
{
    reg.counter(prefix + ".memory_hits").set(memoryHits);
    reg.counter(prefix + ".disk_hits").set(diskHits);
    reg.counter(prefix + ".generated").set(generated);
    reg.counter(prefix + ".evictions").set(evictions);
}

SharedTracePool::SharedTracePool()
{
    budgetBytes_ = static_cast<std::size_t>(
                       positiveEnv("BPSIM_TRACE_POOL_MB")) *
                   1024 * 1024;
}

SharedTracePool &
SharedTracePool::global()
{
    static SharedTracePool pool;
    return pool;
}

SharedTracePool::Stats
SharedTracePool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
SharedTracePool::pinnedBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lruBytes_;
}

void
SharedTracePool::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    lruBytes_ = 0;
    stats_ = Stats();
}

void
SharedTracePool::setBudgetBytes(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    budgetBytes_ = bytes;
    while (budgetBytes_ != 0 && lruBytes_ > budgetBytes_ &&
           !lru_.empty()) {
        lruBytes_ -= lru_.back().bytes;
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void
SharedTracePool::touchLocked(const std::string &key,
                             const TracePtr &sp)
{
    if (budgetBytes_ == 0)
        return;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if (it->key == key) {
            lru_.splice(lru_.begin(), lru_, it);
            return;
        }
    }
    const std::size_t bytes = sp->memoryBytes();
    lru_.push_front({key, sp, bytes});
    lruBytes_ += bytes;
    while (lruBytes_ > budgetBytes_ && !lru_.empty()) {
        // Least-recently-fetched first; the weak entry stays, so
        // suites still replaying the trace keep it alive and a
        // re-fetch before the last ref drops is still a memory hit.
        lruBytes_ -= lru_.back().bytes;
        lru_.pop_back();
        ++stats_.evictions;
    }
}

std::shared_ptr<const TraceBuffer>
SharedTracePool::fetch(const std::string &workload, Counter ops,
                       std::uint64_t seed, const TraceCache &cache,
                       const std::function<TraceBuffer()> &generate,
                       Source *source)
{
    const std::string key = workload + "|" + std::to_string(ops) +
                            "|" + std::to_string(seed);
    std::promise<TracePtr> mine;
    std::shared_future<TracePtr> theirs;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Entry &e = entries_[key];
        if (TracePtr sp = e.cached.lock()) {
            ++stats_.memoryHits;
            touchLocked(key, sp);
            if (source)
                *source = Source::Memory;
            obs::spanInstant("pool.hit", workload);
            return sp;
        }
        if (e.inflight.valid())
            theirs = e.inflight;
        else
            e.inflight = mine.get_future().share();
    }

    if (theirs.valid()) {
        TracePtr sp;
        {
            // Blocked behind another thread's materialization of the
            // same trace — the contention the timeline attributes.
            obs::SpanScope waitSpan("pool.wait", workload);
            sp = theirs.get(); // rethrows the producer's failure
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.memoryHits;
        touchLocked(key, sp);
        if (source)
            *source = Source::Memory;
        return sp;
    }

    // This thread owns the materialization for the key.
    try {
        bool hit = false;
        TracePtr sp;
        {
            obs::SpanScope matSpan("pool.materialize", workload,
                                   "ops", ops);
            sp = std::make_shared<const TraceBuffer>(
                cache.fetch(workload, ops, seed, generate, &hit));
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            Entry &e = entries_[key];
            e.cached = sp;
            e.inflight = std::shared_future<TracePtr>();
            touchLocked(key, sp);
            if (hit)
                ++stats_.diskHits;
            else
                ++stats_.generated;
        }
        if (source)
            *source = hit ? Source::Disk : Source::Generated;
        mine.set_value(sp);
        return sp;
    } catch (...) {
        {
            // Uncache the failure so the next request retries.
            std::lock_guard<std::mutex> lock(mu_);
            entries_[key].inflight = std::shared_future<TracePtr>();
        }
        mine.set_exception(std::current_exception());
        throw;
    }
}

} // namespace bpsim

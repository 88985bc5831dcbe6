#include "obs/span_trace.hh"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/chrome_trace.hh"

namespace bpsim::obs {

namespace {

/** The process sink. Acquire/release so a thread that loads the
 *  pointer sees the fully constructed recorder even without a
 *  thread-creation edge. */
std::atomic<SpanRecorder *> g_recorder{nullptr};

/** Generation stamp: bumped per recorder so a thread-local cached
 *  ring is never reused across recorder instances that happen to
 *  share an address. */
std::atomic<std::uint64_t> g_generation{0};

struct ThreadCache
{
    std::uint64_t generation = 0;
    SpanRecorder *owner = nullptr;
    SpanThreadLog *log = nullptr;
};

thread_local ThreadCache t_cache;

} // namespace

SpanRecorder::SpanRecorder(std::size_t per_thread_capacity)
    : capacity_(per_thread_capacity ? per_thread_capacity : 1),
      epoch_(std::chrono::steady_clock::now()),
      generation_(
          g_generation.fetch_add(1, std::memory_order_relaxed) + 1)
{
}

SpanRecorder::~SpanRecorder()
{
    // Self-uninstall as a backstop; callers should have done this
    // (and joined their threads) already.
    SpanRecorder *self = this;
    g_recorder.compare_exchange_strong(self, nullptr,
                                       std::memory_order_acq_rel);
}

SpanRecorder *
SpanRecorder::current()
{
    return g_recorder.load(std::memory_order_acquire);
}

void
SpanRecorder::install(SpanRecorder *rec)
{
    g_recorder.store(rec, std::memory_order_release);
}

std::uint64_t
SpanRecorder::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

SpanThreadLog &
SpanRecorder::localLog()
{
    ThreadCache &c = t_cache;
    if (c.owner == this && c.generation == generation_)
        return *c.log;
    std::lock_guard<std::mutex> lock(mu_);
    const auto tid = static_cast<std::uint32_t>(logs_.size() + 1);
    logs_.push_back(std::make_unique<SpanThreadLog>(
        tid, "thread " + std::to_string(tid), capacity_));
    c.owner = this;
    c.generation = generation_;
    c.log = logs_.back().get();
    return *c.log;
}

void
SpanRecorder::nameThisThread(std::string_view name)
{
    SpanRecorder *rec = current();
    if (!rec)
        return;
    SpanThreadLog &log = rec->localLog();
    std::lock_guard<std::mutex> lock(rec->mu_);
    log.setThreadName(std::string(name));
}

void
SpanRecorder::span(const char *cat, std::string_view name,
                   std::uint64_t start_ns, std::uint64_t dur_ns,
                   const char *arg_name, std::uint64_t arg)
{
    SpanEvent e;
    e.startNs = start_ns;
    e.durNs = dur_ns;
    e.arg = arg;
    e.cat = cat;
    e.argName = arg_name;
    e.setName(name);
    localLog().push(e);
}

void
SpanRecorder::instant(const char *cat, std::string_view name,
                      const char *arg_name, std::uint64_t arg)
{
    SpanEvent e;
    e.startNs = nowNs();
    e.arg = arg;
    e.cat = cat;
    e.argName = arg_name;
    e.setName(name);
    e.instant = true;
    localLog().push(e);
}

std::size_t
SpanRecorder::threadCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return logs_.size();
}

std::uint64_t
SpanRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto &log : logs_)
        total += log->dropped();
    return total;
}

void
SpanRecorder::exportChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    ChromeTraceWriter out(os);
    for (const auto &log : logs_)
        out.threadName(log->tid(), log->threadName());
    for (const auto &log : logs_) {
        for (std::size_t i = 0; i < log->size(); ++i) {
            const SpanEvent &e = log->at(i);
            const ChromeTraceWriter::Arg arg{e.argName, e.arg};
            const std::span<const ChromeTraceWriter::Arg> args(
                &arg, e.argName ? 1 : 0);
            const char *cat = e.cat ? e.cat : "span";
            if (e.instant)
                out.instant(log->tid(), cat, e.name, e.startNs, args);
            else
                out.span(log->tid(), cat, e.name, e.startNs, e.durNs,
                         args);
        }
    }
}

bool
SpanRecorder::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "obs: cannot open timeline file '%s'\n",
                     path.c_str());
        return false;
    }
    exportChromeTrace(os);
    return static_cast<bool>(os);
}

} // namespace bpsim::obs

/**
 * @file
 * Flight recorder for the sweep harness: wall-clock span/instant
 * tracing of the machinery *around* the simulation — scheduler
 * workers, cell execution, steal decisions, trace generation,
 * trace-cache I/O — exported as Chrome trace-event JSON (through
 * ChromeTraceWriter, obs/chrome_trace.hh) loadable in Perfetto /
 * chrome://tracing and summarized offline by `bpstat timeline`.
 *
 * This is the harness-side sibling of EventTracer (which records
 * *simulated* cycles). Design constraints, in order:
 *
 *  1. The simulation is never observed: spans wrap harness code
 *     (pool runs, queue waits, cache loads), so RunReports are
 *     byte-identical with the recorder on or off.
 *  2. Disabled is a branch on a null sink: every record site loads
 *     one process-global pointer and bails when it is null. No
 *     allocation, no clock read, no lock.
 *  3. Enabled is lock-free per thread: each recording thread owns a
 *     fixed-capacity ring of POD events (registered once under a
 *     mutex, appended to with plain stores). The ring keeps the most
 *     recent events and counts what it overwrote.
 *
 * Lifecycle contract (what makes the lock-free part safe):
 * install() the recorder *before* starting the threads that record,
 * and drain — install(nullptr), then exportChromeTrace()/writeFile()
 * — only *after* those threads have been joined. Thread rings are
 * owned by the recorder, so threads may exit before the drain.
 */

#ifndef BPSIM_OBS_SPAN_TRACE_HH
#define BPSIM_OBS_SPAN_TRACE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bpsim::obs {

/** One recorded harness event. POD so rings never allocate after
 *  construction; the name is a truncated inline copy (labels can be
 *  shorter-lived than the recorder), the category and argument name
 *  must be string literals (static storage). */
struct SpanEvent
{
    static constexpr std::size_t kNameCap = 32;

    std::uint64_t startNs = 0; ///< relative to the recorder's epoch
    std::uint64_t durNs = 0;   ///< 0 and instant=true => point event
    std::uint64_t arg = 0;     ///< meaning given by argName
    const char *cat = nullptr; ///< static literal: "cell", "steal", ...
    const char *argName = nullptr; ///< static literal; nullptr = no arg
    char name[kNameCap] = {};      ///< NUL-terminated truncated copy
    bool instant = false;

    void
    setName(std::string_view n)
    {
        const std::size_t len =
            n.size() < kNameCap - 1 ? n.size() : kNameCap - 1;
        std::memcpy(name, n.data(), len);
        name[len] = '\0';
    }
};

/** One thread's fixed-capacity most-recent-events ring. Owned by the
 *  recorder; written only by its registered thread, read only at
 *  drain time (after that thread stopped recording). */
class SpanThreadLog
{
  public:
    SpanThreadLog(std::uint32_t tid, std::string name,
                  std::size_t capacity)
        : ring_(capacity ? capacity : 1),
          tid_(tid),
          name_(std::move(name))
    {
    }

    void
    push(const SpanEvent &e)
    {
        ring_[head_] = e;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        if (size_ < ring_.size())
            ++size_;
        else
            ++dropped_;
    }

    std::uint32_t tid() const { return tid_; }
    const std::string &threadName() const { return name_; }
    void setThreadName(std::string name) { name_ = std::move(name); }
    std::size_t size() const { return size_; }
    std::uint64_t dropped() const { return dropped_; }

    /** @p i = 0 is the *oldest* retained event (ring order — spans
     *  are recorded at close, so this is completion order). */
    const SpanEvent &
    at(std::size_t i) const
    {
        const std::size_t start = size_ < ring_.size() ? 0 : head_;
        std::size_t idx = start + i;
        if (idx >= ring_.size())
            idx -= ring_.size();
        return ring_[idx];
    }

  private:
    std::vector<SpanEvent> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint32_t tid_;
    std::string name_;
};

/** Process-wide span recorder; see file comment for the contract. */
class SpanRecorder
{
  public:
    /** @param per_thread_capacity Ring size, in events, given to each
     *  recording thread (>= 1). */
    explicit SpanRecorder(std::size_t per_thread_capacity = 1 << 13);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    ~SpanRecorder();

    /** The installed recorder, nullptr when tracing is off. This is
     *  the disabled-path branch: one relaxed-ish atomic load. */
    static SpanRecorder *current();

    /** Install @p rec as the process sink (nullptr to uninstall).
     *  Call before starting recording threads / after joining them. */
    static void install(SpanRecorder *rec);

    /** Name the calling thread's Perfetto track ("worker 3",
     *  "driver fig7_ipc_budget"). No-op when no recorder is
     *  installed; threads that record without naming themselves get
     *  "thread N". */
    static void nameThisThread(std::string_view name);

    /** Nanoseconds since the recorder's construction. */
    std::uint64_t nowNs() const;

    /** Record a completed span on the calling thread's ring. */
    void span(const char *cat, std::string_view name,
              std::uint64_t start_ns, std::uint64_t dur_ns,
              const char *arg_name = nullptr, std::uint64_t arg = 0);

    /** Record a point event on the calling thread's ring. */
    void instant(const char *cat, std::string_view name,
                 const char *arg_name = nullptr, std::uint64_t arg = 0);

    /** Threads that have registered a ring so far. */
    std::size_t threadCount() const;
    /** Events overwritten across all rings. */
    std::uint64_t dropped() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}): one
     *  thread_name metadata row per registered thread, "X" complete
     *  events for spans, "i" instants; timestamps in microseconds
     *  with nanosecond precision. Drain-time only. */
    void exportChromeTrace(std::ostream &os) const;

    /** exportChromeTrace() to @p path; false (with a stderr message)
     *  on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    SpanThreadLog &localLog();

    mutable std::mutex mu_; ///< guards logs_ registration/iteration
    std::vector<std::unique_ptr<SpanThreadLog>> logs_;
    std::size_t capacity_;
    std::chrono::steady_clock::time_point epoch_;
    std::uint64_t generation_; ///< distinguishes recorder instances
                               ///< for the thread-local ring cache
};

/**
 * RAII span over the enclosing scope:
 *
 *     obs::SpanScope span("cell", label, "cell", i);
 *
 * When no recorder is installed the constructor is the null-pointer
 * check and the destructor a branch — nothing else happens. The name
 * is captured by reference and read at close; it must outlive the
 * scope (queue labels and artifact names do).
 */
class SpanScope
{
  public:
    SpanScope(const char *cat, std::string_view name,
              const char *arg_name = nullptr, std::uint64_t arg = 0)
        : rec_(SpanRecorder::current()),
          cat_(cat),
          argName_(arg_name),
          name_(name),
          arg_(arg)
    {
        if (rec_)
            start_ = rec_->nowNs();
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    ~SpanScope()
    {
        if (rec_)
            rec_->span(cat_, name_, start_, rec_->nowNs() - start_,
                       argName_, arg_);
    }

  private:
    SpanRecorder *rec_;
    const char *cat_;
    const char *argName_;
    std::string_view name_;
    std::uint64_t arg_;
    std::uint64_t start_ = 0;
};

/** Point event; a null-sink branch when tracing is off. */
inline void
spanInstant(const char *cat, std::string_view name,
            const char *arg_name = nullptr, std::uint64_t arg = 0)
{
    if (SpanRecorder *rec = SpanRecorder::current())
        rec->instant(cat, name, arg_name, arg);
}

} // namespace bpsim::obs

#endif // BPSIM_OBS_SPAN_TRACE_HH

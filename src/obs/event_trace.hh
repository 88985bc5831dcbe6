/**
 * @file
 * Per-cycle simulator event tracing. The timing core (and anything
 * else with a cycle notion) records discrete events — a predictor
 * override disagreement, a misprediction resolving, a ROB-full
 * dispatch stall, a cache miss — into a fixed-capacity ring buffer:
 * recording is a couple of stores, the buffer keeps the most recent
 * `capacity` events and counts what it overwrote, and nothing is
 * allocated after construction. The tracer is attached by pointer
 * and is nullptr by default, so an untraced run pays only a null
 * check at each event site (never per cycle).
 *
 * Export formats:
 *  - JSONL: one `{"cycle":..,"event":..,"pc":..,"arg":..}` per line,
 *    greppable and trivially loadable from Python;
 *  - Chrome trace_event JSON (`{"traceEvents":[...]}`, written by
 *    ChromeTraceWriter, obs/chrome_trace.hh), loadable in
 *    chrome://tracing and Perfetto: simulated cycles are mapped to
 *    microseconds, event rows are split per event type via the `tid`
 *    field, and duration events use `arg` as their cycle length.
 */

#ifndef BPSIM_OBS_EVENT_TRACE_HH
#define BPSIM_OBS_EVENT_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace bpsim::obs {

/** What happened. Values index eventName(); keep them dense. */
enum class SimEvent : std::uint8_t {
    Fetch,             ///< a fetch block started (arg = ops fetched)
    Predict,           ///< conditional branch predicted (arg = taken)
    OverrideDisagree,  ///< slow predictor overrode (arg = bubbles)
    MispredictResolve, ///< mispredicted branch resolved (arg = cycles blocked)
    RobStall,          ///< dispatch blocked on a full ROB
    CacheMiss,         ///< i-cache fetch miss (arg = stall cycles)
    BtbMiss,           ///< taken branch without a BTB target
    Flush,             ///< front-end restart (arg = squashed uops)
};

/** Printable event name ("override_disagree", ...). */
const char *eventName(SimEvent e);
constexpr unsigned kSimEventCount = 8;

/** One recorded event. */
struct TraceEvent
{
    Cycle cycle = 0;
    Addr pc = 0;
    std::uint64_t arg = 0;
    SimEvent type = SimEvent::Fetch;
};

/** Fixed-capacity most-recent-events ring buffer; see file comment. */
class EventTracer
{
  public:
    /** @param capacity Ring size in events (>= 1). */
    explicit EventTracer(std::size_t capacity = 1 << 16);

    void
    record(Cycle cycle, SimEvent type, Addr pc = 0,
           std::uint64_t arg = 0)
    {
        TraceEvent &e = ring_[head_];
        e.cycle = cycle;
        e.pc = pc;
        e.arg = arg;
        e.type = type;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        if (size_ < ring_.size())
            ++size_;
        else
            ++dropped_;
    }

    std::size_t capacity() const { return ring_.size(); }
    /** Events currently held (<= capacity). */
    std::size_t size() const { return size_; }
    /** Events overwritten after the ring filled. */
    std::uint64_t dropped() const { return dropped_; }
    /** Total events ever recorded. */
    std::uint64_t recorded() const { return size_ + dropped_; }

    /** @p i = 0 is the *oldest* retained event. */
    const TraceEvent &
    at(std::size_t i) const
    {
        const std::size_t start =
            size_ < ring_.size() ? 0 : head_;
        std::size_t idx = start + i;
        if (idx >= ring_.size())
            idx -= ring_.size();
        return ring_[idx];
    }

    void clear();

    /** One JSON object per line, oldest first. */
    void exportJsonl(std::ostream &os) const;

    /** Chrome trace_event format; see file comment. */
    void exportChromeTrace(std::ostream &os) const;

    /** Write to @p path, choosing format by extension: ".jsonl"
     *  exports JSONL, anything else the Chrome trace format.
     *  Returns false (with a stderr message) on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace bpsim::obs

#endif // BPSIM_OBS_EVENT_TRACE_HH

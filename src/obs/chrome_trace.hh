/**
 * @file
 * The one Chrome trace-event writer. EventTracer (simulated cycles)
 * and SpanRecorder (harness wall clock) both export through it, so
 * every trace file bpsim writes has one shape: a
 * `{"traceEvents":[...]}` object with one event per line, loadable
 * in Perfetto / chrome://tracing and read by `bpstat timeline`.
 * Events stream straight to the output; nothing is buffered.
 */

#ifndef BPSIM_OBS_CHROME_TRACE_HH
#define BPSIM_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>

namespace bpsim::obs {

/** Streams one Chrome trace-event document; see file comment. */
class ChromeTraceWriter
{
  public:
    /** One integer event argument. */
    struct Arg
    {
        const char *name;
        std::uint64_t value;
    };

    /** Opens the document on @p os. */
    explicit ChromeTraceWriter(std::ostream &os);
    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;
    /** Closes the document. */
    ~ChromeTraceWriter();

    /** Names track @p tid (a "thread_name" metadata event). */
    void threadName(std::uint32_t tid, std::string_view name);

    /** A complete ("X") event on track @p tid. Times are in
     *  nanoseconds and written as microseconds, Chrome's unit. */
    void span(std::uint32_t tid, std::string_view cat,
              std::string_view name, std::uint64_t ts_ns,
              std::uint64_t dur_ns, std::span<const Arg> args = {});

    /** A thread-scoped instant ("i") event on track @p tid. */
    void instant(std::uint32_t tid, std::string_view cat,
                 std::string_view name, std::uint64_t ts_ns,
                 std::span<const Arg> args = {});

  private:
    void event(char ph, std::uint32_t tid, std::string_view cat,
               std::string_view name, std::uint64_t ts_ns,
               const std::uint64_t *dur_ns,
               std::span<const Arg> args);

    std::ostream &os_;
    bool first_ = true;
};

} // namespace bpsim::obs

#endif // BPSIM_OBS_CHROME_TRACE_HH

#include "obs/chrome_trace.hh"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "obs/json.hh"

namespace bpsim::obs {

namespace {

/** Escaped, quoted JSON string (reuses the Json dumper). */
std::string
quoted(std::string_view s)
{
    return Json(std::string(s)).dump();
}

/** Microseconds with nanosecond precision, as Chrome's "ts" wants. */
std::string
micros(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

} // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream &os) : os_(os)
{
    os_ << "{\"traceEvents\":[\n";
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    os_ << "\n]}\n";
}

void
ChromeTraceWriter::threadName(std::uint32_t tid, std::string_view name)
{
    os_ << (first_ ? "" : ",\n") << "{\"ph\":\"M\",\"pid\":1,\"tid\":"
        << tid << ",\"name\":\"thread_name\",\"args\":{\"name\":"
        << quoted(name) << "}}";
    first_ = false;
}

void
ChromeTraceWriter::span(std::uint32_t tid, std::string_view cat,
                        std::string_view name, std::uint64_t ts_ns,
                        std::uint64_t dur_ns,
                        std::span<const Arg> args)
{
    event('X', tid, cat, name, ts_ns, &dur_ns, args);
}

void
ChromeTraceWriter::instant(std::uint32_t tid, std::string_view cat,
                           std::string_view name, std::uint64_t ts_ns,
                           std::span<const Arg> args)
{
    event('i', tid, cat, name, ts_ns, nullptr, args);
}

void
ChromeTraceWriter::event(char ph, std::uint32_t tid,
                         std::string_view cat, std::string_view name,
                         std::uint64_t ts_ns,
                         const std::uint64_t *dur_ns,
                         std::span<const Arg> args)
{
    os_ << (first_ ? "" : ",\n") << "{\"ph\":\"" << ph
        << "\",\"pid\":1,\"tid\":" << tid << ",\"cat\":" << quoted(cat)
        << ",\"name\":" << quoted(name) << ",\"ts\":" << micros(ts_ns);
    if (dur_ns)
        os_ << ",\"dur\":" << micros(*dur_ns);
    else
        os_ << ",\"s\":\"t\""; // thread-scoped instant
    if (!args.empty()) {
        os_ << ",\"args\":{";
        for (std::size_t i = 0; i < args.size(); ++i)
            os_ << (i ? "," : "") << quoted(args[i].name) << ':'
                << args[i].value;
        os_ << '}';
    }
    os_ << '}';
    first_ = false;
}

} // namespace bpsim::obs

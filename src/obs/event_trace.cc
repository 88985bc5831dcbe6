#include "obs/event_trace.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/chrome_trace.hh"
#include "obs/json.hh"

namespace bpsim::obs {

const char *
eventName(SimEvent e)
{
    switch (e) {
      case SimEvent::Fetch: return "fetch";
      case SimEvent::Predict: return "predict";
      case SimEvent::OverrideDisagree: return "override_disagree";
      case SimEvent::MispredictResolve: return "mispredict_resolve";
      case SimEvent::RobStall: return "rob_stall";
      case SimEvent::CacheMiss: return "cache_miss";
      case SimEvent::BtbMiss: return "btb_miss";
      case SimEvent::Flush: return "flush";
    }
    return "unknown";
}

EventTracer::EventTracer(std::size_t capacity)
    : ring_(capacity ? capacity : 1)
{
}

void
EventTracer::clear()
{
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
}

void
EventTracer::exportJsonl(std::ostream &os) const
{
    for (std::size_t i = 0; i < size_; ++i) {
        const TraceEvent &e = at(i);
        Json line = Json::object();
        line.set("cycle", Json(e.cycle));
        line.set("event", Json(eventName(e.type)));
        line.set("pc", Json(e.pc));
        line.set("arg", Json(e.arg));
        os << line.dump() << '\n';
    }
}

void
EventTracer::exportChromeTrace(std::ostream &os) const
{
    ChromeTraceWriter out(os);
    // One named track per event type, so Perfetto shows a row each.
    for (unsigned t = 0; t < kSimEventCount; ++t)
        out.threadName(t + 1, eventName(static_cast<SimEvent>(t)));
    for (std::size_t i = 0; i < size_; ++i) {
        const TraceEvent &e = at(i);
        const ChromeTraceWriter::Arg args[] = {{"pc", e.pc},
                                               {"arg", e.arg}};
        // 1 cycle -> 1 us. Point events get one cycle; stall-style
        // events carry their length in arg.
        out.span(static_cast<unsigned>(e.type) + 1, "sim",
                 eventName(e.type), e.cycle * 1000,
                 (e.arg ? e.arg : 1) * 1000, args);
    }
}

bool
EventTracer::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "obs: cannot open trace file '%s'\n",
                     path.c_str());
        return false;
    }
    const bool jsonl =
        path.size() >= 6 &&
        path.compare(path.size() - 6, 6, ".jsonl") == 0;
    if (jsonl)
        exportJsonl(os);
    else
        exportChromeTrace(os);
    return static_cast<bool>(os);
}

} // namespace bpsim::obs

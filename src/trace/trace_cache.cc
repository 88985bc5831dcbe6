#include "trace/trace_cache.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <thread>

#include "obs/span_trace.hh"
#include "trace/trace_io.hh"

namespace bpsim {

namespace fs = std::filesystem;

namespace {

// Process-wide (TraceCache is a value type copied into every
// SuiteTraces): a cache that cannot be written to is one condition,
// so it earns one warning, not one per trace per bench.
std::atomic<Counter> storeFailureCount{0};
std::atomic<bool> storeFailureWarned{false};

void
noteStoreFailure(const std::string &what)
{
    storeFailureCount.fetch_add(1, std::memory_order_relaxed);
    if (!storeFailureWarned.exchange(true,
                                     std::memory_order_relaxed))
        std::fprintf(stderr,
                     "trace-cache: %s; continuing without the cache "
                     "(further store failures suppressed)\n",
                     what.c_str());
}

} // namespace

Counter
TraceCache::storeFailures()
{
    return storeFailureCount.load(std::memory_order_relaxed);
}

void
TraceCache::resetStoreFailuresForTest()
{
    storeFailureCount.store(0, std::memory_order_relaxed);
    storeFailureWarned.store(false, std::memory_order_relaxed);
}

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir)) {}

TraceCache
TraceCache::fromEnv()
{
    const char *env = std::getenv("BPSIM_TRACE_CACHE");
    if (!env || *env == '\0')
        return TraceCache();
    return TraceCache(env);
}

std::string
TraceCache::entryPath(const std::string &workload, Counter ops,
                      std::uint64_t seed) const
{
    return dir_ + "/" + workload + "_ops" + std::to_string(ops) +
           "_seed" + std::to_string(seed) + "_v" +
           std::to_string(kFormatVersion) + ".bptrace";
}

std::optional<TraceBuffer>
TraceCache::load(const std::string &workload, Counter ops,
                 std::uint64_t seed) const
{
    if (!enabled())
        return std::nullopt;
    const std::string path = entryPath(workload, ops, seed);
    std::error_code ec;
    if (!fs::exists(path, ec))
        return std::nullopt;
    try {
        TraceBuffer trace = readTrace(path);
        // The header's count can validate while the payload was cut
        // short mid-record stream; demand the exact length too.
        if (trace.size() != ops)
            throw TraceIoError("cached trace '" + path +
                               "' has wrong length");
        return trace;
    } catch (const TraceIoError &e) {
        // Treat as a miss but do NOT unlink: between our failed read
        // and a remove(), another process may have atomically renamed
        // a good entry into place — deleting by path would throw that
        // away (check-then-act race). Our own regeneration store()
        // overwrites the corrupt file atomically instead.
        std::fprintf(stderr,
                     "trace-cache: ignoring corrupt entry: %s\n",
                     e.what());
        return std::nullopt;
    }
}

bool
TraceCache::store(const std::string &workload, Counter ops,
                  std::uint64_t seed, const TraceBuffer &trace) const
{
    if (!enabled())
        return false;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    const std::string path = entryPath(workload, ops, seed);
    // Process+thread-unique temp name: concurrent benches sharing a
    // cache dir write distinct temps and race only on the atomic
    // rename, where either winner is a valid entry.
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long long>(
            std::hash<std::thread::id>{}(
                std::this_thread::get_id()) ^
            static_cast<unsigned long long>(
                reinterpret_cast<std::uintptr_t>(&trace))));
    try {
        writeTraceV3(trace, tmp);
    } catch (const TraceIoError &e) {
        noteStoreFailure(std::string("store failed: ") + e.what());
        fs::remove(tmp, ec);
        return false;
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        noteStoreFailure("cannot publish '" + path +
                         "': " + ec.message());
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

TraceBuffer
TraceCache::fetch(const std::string &workload, Counter ops,
                  std::uint64_t seed,
                  const std::function<TraceBuffer()> &generate,
                  bool *hit) const
{
    {
        obs::SpanScope loadSpan("cache.load", workload, "ops", ops);
        if (auto cached = load(workload, ops, seed)) {
            if (hit)
                *hit = true;
            return std::move(*cached);
        }
    }
    if (hit)
        *hit = false;
    TraceBuffer trace;
    {
        obs::SpanScope genSpan("trace.generate", workload, "ops", ops);
        trace = generate();
    }
    {
        obs::SpanScope storeSpan("cache.store", workload, "ops", ops);
        store(workload, ops, seed, trace);
    }
    return trace;
}

} // namespace bpsim

/**
 * @file
 * Shared on-disk cache of generated traces.
 *
 * Every bench binary replays the same twelve SPECint stand-in traces,
 * and regenerating them from the workload kernels dominates start-up
 * once BPSIM_OPS_PER_WORKLOAD grows toward paper-scale runs. The
 * cache stores each generated trace once per configuration:
 *
 *   <dir>/<workload>_ops<N>_seed<S>_v<version>.bptrace
 *
 * keyed by workload name, trace length, generation seed and the
 * constant format stamp kFormatVersion. Entries are columnar v3
 * trace_io files (writeTraceV3), whose sections are the form every
 * trace is held in (trace_buffer.hh): a store writes a generated
 * trace's sections out as they are, and a load reads them back into
 * a trace of the same kind. Neither encodes or decodes an op, so a
 * warm accuracy run never pays a decode at all. Reading into owned
 * memory also means an entry stomped in place by another process
 * fails validation or reads short — a TraceIoError — where a mapping
 * would fault at first touch.
 * Read-back reuses the trace_io validation; a corrupt entry, or one
 * of another trace version, surfaces as TraceIoError and is treated
 * as a miss. load() never unlinks — deleting by path would race
 * other processes that may have already replaced the entry with a
 * good one (classic check-then-act). Instead the following
 * regeneration store() overwrites the corrupt file via its atomic
 * rename; generation is deterministic per key, so even two processes
 * healing the same entry concurrently rename identical bytes into
 * place. Writes go to a process-unique temp file followed by that
 * rename, so concurrent bench binaries can share one cache directory
 * without ever observing a partial entry.
 *
 * The cache is opt-in: it is enabled only when constructed with a
 * directory, and fromEnv() reads BPSIM_TRACE_CACHE. A disabled cache
 * reports every lookup as a miss and stores nothing.
 */

#ifndef BPSIM_TRACE_TRACE_CACHE_HH
#define BPSIM_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/types.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/** On-disk trace store; see file comment. */
class TraceCache
{
  public:
    /** Stamp in every entry's file name. Bump it to invalidate every
     *  existing cache when trace generation or the entry format
     *  changes meaning: entries under any other stamp are never
     *  read. */
    static constexpr int kFormatVersion = 3;

    /** A disabled cache (all lookups miss, stores are no-ops). */
    TraceCache() = default;

    /** A cache rooted at @p dir (created on first store). */
    explicit TraceCache(std::string dir);

    /** Cache at $BPSIM_TRACE_CACHE, or a disabled cache if unset. */
    static TraceCache fromEnv();

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Entry path for a key (valid even when disabled, for tests). */
    std::string entryPath(const std::string &workload, Counter ops,
                          std::uint64_t seed) const;

    /**
     * Load the cached trace for a key. Returns nullopt on a miss or
     * when the entry fails trace_io validation. Corrupt entries are
     * left in place (see file comment); the regeneration store()
     * atomically replaces them.
     */
    std::optional<TraceBuffer> load(const std::string &workload,
                                    Counter ops,
                                    std::uint64_t seed) const;

    /**
     * Atomically persist @p trace under a key. Returns false when
     * the cache is disabled or the write fails; a failed store never
     * leaves a partial entry behind. Write failures (read-only or
     * vanished cache dir, disk full) degrade gracefully: the run
     * continues on the in-memory trace, a warning is printed for the
     * FIRST failure only (the cause — a bad BPSIM_TRACE_CACHE — is
     * one condition, not one per trace), and every failure counts
     * into storeFailures().
     */
    bool store(const std::string &workload, Counter ops,
               std::uint64_t seed, const TraceBuffer &trace) const;

    /** Process-wide count of failed store() attempts. The warn-once
     *  state is process-wide too because TraceCache is copied freely
     *  (SuiteTraces holds it by value). */
    static Counter storeFailures();
    /** Reset the failure counter and re-arm the warning (tests). */
    static void resetStoreFailuresForTest();

    /**
     * load() or, on a miss, run @p generate and store the result.
     * @p hit (when non-null) reports whether the cache served it.
     */
    TraceBuffer fetch(const std::string &workload, Counter ops,
                      std::uint64_t seed,
                      const std::function<TraceBuffer()> &generate,
                      bool *hit = nullptr) const;

  private:
    std::string dir_;
};

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_CACHE_HH

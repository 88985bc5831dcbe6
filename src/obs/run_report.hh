/**
 * @file
 * Machine-readable run reports. Every bench/example binary can emit
 * one RunReport JSON alongside its stdout tables (--report PATH);
 * `bpstat` diffs two of them and validates their invariants, which
 * makes the report the standing regression artifact for perf PRs.
 *
 * The schema is versioned (kSchemaVersion); readers reject files
 * whose major version they do not understand. One report holds one
 * experiment's rows — a row is one (workload, predictor, mode,
 * budget) cell with its accuracy and, for timing runs, its IPC and
 * per-cause penalty attribution:
 *
 *   flush_cycles{cause=override}   cycles fetch lost to overriding-
 *                                  predictor disagreement squashes
 *   flush_cycles{cause=mispredict} cycles fetch waited on mispredict
 *                                  resolution + redirect
 *
 * Invariants a valid timing row satisfies (bpstat --check):
 *   flushCyclesTotal == override + mispredict causes
 *   squashedUops     == issueWidth * flushCyclesTotal
 *   instructions     == opsPerWorkload (when the report sets it: a
 *                       timing run never silently stops short)
 */

#ifndef BPSIM_OBS_RUN_REPORT_HH
#define BPSIM_OBS_RUN_REPORT_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/json.hh"

namespace bpsim::obs {

/** Thrown when a report file cannot be parsed or fails the schema. */
class RunReportError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The file is missing or unreadable. */
class RunReportIoError : public RunReportError
{
  public:
    using RunReportError::RunReportError;
};

/** The file is not valid JSON or lacks required fields (truncation
 *  lands here too). */
class RunReportParseError : public RunReportError
{
  public:
    using RunReportError::RunReportError;
};

/** The file parsed but its schema_version is not supported. */
class RunReportSchemaError : public RunReportError
{
  public:
    using RunReportError::RunReportError;
};

/** One experiment's machine-readable results. */
struct RunReport
{
    static constexpr int kSchemaVersion = 1;

    /** One (workload, predictor, mode, budget) result cell. */
    struct Row
    {
        std::string workload;
        std::string predictor;
        std::string mode;          ///< delay mode; "" for accuracy-only
        std::size_t budgetBytes = 0;

        // accuracy
        Counter branches = 0;
        Counter mispredictions = 0;

        // timing (meaningful only when hasTiming)
        bool hasTiming = false;
        unsigned issueWidth = 0;
        Counter cycles = 0;
        Counter instructions = 0;
        Counter squashedUops = 0;
        Counter flushes = 0;
        Counter flushCyclesOverride = 0;
        Counter flushCyclesMispredict = 0;
        Counter stallCyclesIcache = 0;
        Counter stallCyclesBtb = 0;
        Counter robStallCycles = 0;

        double
        ipc() const
        {
            return cycles ? static_cast<double>(instructions) /
                                static_cast<double>(cycles)
                          : 0.0;
        }
        double
        mispredictPercent() const
        {
            return branches ? 100.0 *
                                  static_cast<double>(mispredictions) /
                                  static_cast<double>(branches)
                            : 0.0;
        }
        Counter
        flushCyclesTotal() const
        {
            return flushCyclesOverride + flushCyclesMispredict;
        }
        /** Key identifying this cell across two reports. */
        std::string key() const;

        /** Serialize this row alone (one entry of `rows`). */
        Json toJson() const;
        /** Throws RunReportParseError on shape problems. */
        static Row fromJson(const Json &j);
    };

    int schemaVersion = kSchemaVersion;
    std::string tool = "bpsim";
    std::string experiment;
    Counter opsPerWorkload = 0;
    std::uint64_t seed = 0;
    std::vector<Row> rows;
    /** Metric-registry snapshot (object), or null when absent. */
    Json metrics;

    Json toJson() const;
    /** Throws RunReportError on schema or shape problems, and
     *  RunReportParseError on a partial report (one carrying the
     *  `annotations` older binaries wrote for failed cells). */
    static RunReport fromJson(const Json &j);

    /** Returns false (with a stderr message) on I/O failure. */
    bool writeFile(const std::string &path) const;
    /** Throws RunReportError on I/O, parse or schema failure. */
    static RunReport readFile(const std::string &path);

    /**
     * Internal-consistency problems (empty means valid): schema
     * version, duplicate row keys, and the timing-row invariants in
     * the file comment.
     */
    std::vector<std::string> validate() const;
};

} // namespace bpsim::obs

#endif // BPSIM_OBS_RUN_REPORT_HH

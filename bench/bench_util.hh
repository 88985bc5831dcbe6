/**
 * @file
 * Shared helpers for the experiment-reproduction benches.
 *
 * Each bench binary regenerates one table or figure of the paper:
 * it prints the same rows/series the paper reports, over the same
 * sweep axes. Absolute values differ from the paper (our substrate
 * is a synthetic-workload simulator, see DESIGN.md §4); the shapes
 * are the reproduction target and EXPERIMENTS.md records both.
 *
 * Trace length per workload defaults to a laptop-friendly value and
 * scales with the BPSIM_OPS_PER_WORKLOAD environment variable for
 * paper-scale runs.
 *
 * The artifact bodies themselves live behind the registry in
 * artifact_registry.hh; this header holds the CLI-argument layer the
 * thin per-artifact mains share.
 */

#ifndef BPSIM_BENCH_BENCH_UTIL_HH
#define BPSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/report_session.hh"
#include "parallel/cell_pool.hh"

namespace bpsim {

/**
 * Uniform CLI error handling for the bench binaries: after
 * BenchArgs::parse has stripped --report/--trace/--jobs (and
 * --manifest where accepted) and the bench has consumed its own
 * flags, anything left in argv is unknown (this also catches a
 * trailing `--report` or `--jobs` with no value, which the strippers
 * leave in place). Prints a one-line error plus usage to stderr and
 * exits 2, matching the bpstat usage exit code. @p extra_usage names
 * bench-specific flags, e.g. "[--manifest FILE]".
 */
inline void
requireNoExtraArgs(int argc, char **argv,
                   const std::string &extra_usage = "")
{
    if (argc <= 1)
        return;
    std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                 argv[1]);
    std::fprintf(stderr,
                 "usage: %s [--report FILE] [--trace FILE] "
                 "[--jobs N]%s%s\n",
                 argv[0], extra_usage.empty() ? "" : " ",
                 extra_usage.c_str());
    std::exit(2);
}

/**
 * The one shared `--jobs N` / `--jobs=N` parser: strips the flag
 * from argv and returns N. A non-numeric or zero value (either
 * form) is a usage error (exit 2, like requireNoExtraArgs); a
 * trailing `--jobs` with no value is left in argv for
 * requireNoExtraArgs to reject. Without the flag, 0 is returned and
 * the CellPool falls back to BPSIM_JOBS, then to the hardware
 * concurrency.
 */
inline unsigned
takeJobsFlag(int &argc, char **argv)
{
    const auto parse = [&](const char *val) {
        char *end = nullptr;
        const long v = std::strtol(val, &end, 10);
        if (end == val || *end != '\0' || v <= 0) {
            std::fprintf(stderr,
                         "%s: --jobs needs a positive integer, "
                         "got '%s'\n",
                         argv[0], val);
            std::fprintf(stderr,
                         "usage: %s [--report FILE] "
                         "[--trace FILE] [--jobs N]\n",
                         argv[0]);
            std::exit(2);
        }
        return static_cast<unsigned>(v);
    };
    unsigned jobs = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs = parse(argv[i + 1]);
            ++i;
            continue;
        }
        if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            jobs = parse(argv[i] + 7);
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    return jobs;
}

/**
 * The common bench command line, parsed once and passed around as a
 * plain value — so bpsweep (and tests) can construct one
 * programmatically without fabricating an argv.
 *
 * parse() is the one shared arg-parsing path for every bench main:
 * it strips --report/--trace (obs::takeFlag), --jobs
 * (takeJobsFlag) and, when @p accepts_manifest, the separated
 * `--manifest FILE` form, then rejects anything left over
 * (requireNoExtraArgs: exit 2 with the usage line). Flag syntax,
 * precedence (last occurrence wins) and exit codes are exactly the
 * pre-BenchArgs behavior.
 */
struct BenchArgs
{
    std::string report;   ///< --report path, "" when absent
    std::string trace;    ///< --trace path, "" when absent
    unsigned jobs = 0;    ///< --jobs value, 0 = env/hardware
    std::string manifest; ///< --manifest path, "" when absent

    static BenchArgs
    parse(int &argc, char **argv, bool accepts_manifest = false,
          const std::string &extra_usage = "")
    {
        BenchArgs args;
        args.report = obs::takeFlag(argc, argv, "--report");
        args.trace = obs::takeFlag(argc, argv, "--trace");
        args.jobs = takeJobsFlag(argc, argv);
        if (accepts_manifest) {
            // Separated form only, as study_soft_error always
            // accepted it.
            int out = 1;
            for (int i = 1; i < argc; ++i) {
                if (std::strcmp(argv[i], "--manifest") == 0 &&
                    i + 1 < argc) {
                    args.manifest = argv[i + 1];
                    ++i;
                    continue;
                }
                argv[out++] = argv[i];
            }
            argc = out;
        }
        requireNoExtraArgs(argc, argv, extra_usage);
        return args;
    }
};

/** "16K", "512K" style budget label. */
inline std::string
budgetLabel(std::size_t bytes)
{
    return std::to_string(bytes / 1024) + "K";
}

/** Short (7-char) benchmark label: "gzip", "twolf", ... */
inline std::string
shortName(const std::string &spec_name)
{
    const auto dot = spec_name.find('.');
    return dot == std::string::npos ? spec_name
                                    : spec_name.substr(dot + 1);
}

} // namespace bpsim

#endif // BPSIM_BENCH_BENCH_UTIL_HH

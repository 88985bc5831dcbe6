/**
 * @file
 * bpstat — inspect, validate and diff bpsim RunReport JSON files.
 *
 *   bpstat show     REPORT.json          summarise one report
 *   bpstat check    REPORT.json          validate schema + invariants
 *   bpstat --check  REPORT.json          (same; flag spelling)
 *   bpstat diff     OLD.json NEW.json    per-cell deltas
 *   bpstat summary  DIR                  one line per report in DIR
 *                                        (a bpsweep --report-dir)
 *   bpstat manifest MANIFEST.json        summarise a campaign
 *                                        checkpoint (src/robust)
 *   bpstat timeline TIMELINE.json        summarise a flight
 *                                        recording (bpsweep
 *                                        --timeline): per-worker
 *                                        utilization, steal counts,
 *                                        slowest cells, where the
 *                                        waits went
 *
 * `check` exits 1 when the report violates its invariants (duplicate
 * row keys, squashed-uop/flush-cycle accounting, schema version), so
 * CI can gate on it. `diff` matches rows across the two reports by
 * (workload, predictor, mode, budget) key and prints misprediction,
 * IPC and penalty-attribution deltas — the standing perf-regression
 * workflow: save a report on main, save one on your branch, diff.
 *
 * Every failure mode has a distinct exit code so scripts can react
 * without parsing stderr; bad input is always a one-line error,
 * never an unhandled exception:
 *
 *   0  success
 *   1  invariant violation / diff regression / failed manifest cells
 *   2  usage error (unknown command, wrong arity)
 *   3  file missing or unreadable
 *   4  file unparsable (truncated, not JSON, wrong shape)
 *   5  schema version mismatch
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/run_report.hh"
#include "robust/run_manifest.hh"

using bpsim::obs::RunReport;
using bpsim::obs::RunReportError;
using bpsim::obs::RunReportIoError;
using bpsim::obs::RunReportParseError;
using bpsim::obs::RunReportSchemaError;
using bpsim::robust::CellRecord;
using bpsim::robust::RunManifest;
using bpsim::robust::RunManifestError;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: bpstat show REPORT.json\n"
                 "       bpstat check REPORT.json   (or --check)\n"
                 "              [--monotone-upsets [TOLERANCE_PP]]\n"
                 "       bpstat diff OLD.json NEW.json\n"
                 "       bpstat summary DIR\n"
                 "       bpstat manifest MANIFEST.json\n"
                 "       bpstat timeline TIMELINE.json\n");
    return 2;
}

RunReport
load(const char *path)
{
    return RunReport::readFile(path);
}

void
header(const RunReport &r, const char *path)
{
    std::printf("%s: experiment '%s' (schema v%d), %zu rows, "
                "%llu ops/workload, seed %llu\n",
                path, r.experiment.c_str(), r.schemaVersion,
                r.rows.size(),
                static_cast<unsigned long long>(r.opsPerWorkload),
                static_cast<unsigned long long>(r.seed));
}

int
cmdShow(const char *path)
{
    const RunReport r = load(path);
    header(r, path);
    std::printf("%-44s %10s %8s %12s %12s\n", "cell (wl|pred|mode|kB)",
                "misp %", "IPC", "flush cyc", "of which ovr");
    for (const auto &row : r.rows) {
        std::printf("%-44s %10.2f", row.key().c_str(),
                    row.mispredictPercent());
        if (row.hasTiming)
            std::printf(" %8.3f %12llu %12llu\n", row.ipc(),
                        static_cast<unsigned long long>(
                            row.flushCyclesTotal()),
                        static_cast<unsigned long long>(
                            row.flushCyclesOverride));
        else
            std::printf(" %8s %12s %12s\n", "-", "-", "-");
    }
    for (const auto &a : r.annotations)
        std::printf("failed cell %s: %s\n", a.key.c_str(),
                    a.message.c_str());
    return 0;
}

/**
 * The resilience gate: rows whose predictor label carries a swept
 * upset rate ("gshare@u=1e-04", optionally "...@p=secded" — the
 * shape study_soft_error and study_protection_surface emit) are
 * grouped into (predictor+policy, mode, budget) slices, misprediction
 * is averaged across workloads per rate, and every slice must be
 * monotone non-decreasing in the rate. A flip can accidentally help
 * one workload, but if *more* upsets mean *fewer* mispredictions on
 * the suite mean, the injection or repair path is broken — that is
 * the regression this catches. @p tolerance_pp absorbs suite-mean
 * noise at small trace lengths.
 */
int
checkMonotoneUpsets(const RunReport &r, const char *path,
                    double tolerance_pp)
{
    struct Slice
    {
        // rate -> per-workload misprediction percents
        std::map<double, std::vector<double>> byRate;
    };
    std::map<std::string, Slice> slices;
    for (const auto &row : r.rows) {
        const std::size_t at = row.predictor.find("@u=");
        if (at == std::string::npos)
            continue;
        const char *rate_str = row.predictor.c_str() + at + 3;
        char *end = nullptr;
        const double rate = std::strtod(rate_str, &end);
        if (end == rate_str)
            continue;
        // Slice key: the label with the rate spliced out, so the
        // policy suffix (when present) stays part of the key.
        std::string label = row.predictor;
        label.erase(at, static_cast<std::size_t>(end - rate_str) + 3);
        const std::string key = label + "|" + row.mode + "|" +
                                std::to_string(row.budgetBytes);
        slices[key].byRate[rate].push_back(row.mispredictPercent());
    }
    if (slices.empty()) {
        std::fprintf(stderr,
                     "%s: monotone-upsets: no rows with @u=RATE "
                     "labels — gate misapplied?\n",
                     path);
        return 1;
    }

    std::size_t violations = 0;
    for (const auto &[key, slice] : slices) {
        double prev = -HUGE_VAL, prev_rate = 0.0;
        for (const auto &[rate, misps] : slice.byRate) {
            double mean = 0.0;
            for (double m : misps)
                mean += m;
            mean /= static_cast<double>(misps.size());
            if (mean < prev - tolerance_pp) {
                std::fprintf(stderr,
                             "%s: monotone-upsets: %s improves from "
                             "%.3f%% at u=%g to %.3f%% at u=%g\n",
                             path, key.c_str(), prev, prev_rate,
                             mean, rate);
                ++violations;
            }
            prev = mean;
            prev_rate = rate;
        }
    }
    std::printf("%s: monotone-upsets: %zu slice(s) checked, "
                "%zu violation(s) (tolerance %.3fpp)\n",
                path, slices.size(), violations, tolerance_pp);
    return violations ? 1 : 0;
}

int
cmdCheck(const char *path, bool monotone_upsets,
         double monotone_tolerance_pp)
{
    const RunReport r = load(path);
    const auto problems = r.validate();
    if (!problems.empty()) {
        std::fprintf(stderr, "%s: %zu problem(s)\n", path,
                     problems.size());
        for (const auto &p : problems)
            std::fprintf(stderr, "  - %s\n", p.c_str());
        return 1;
    }
    if (r.annotations.empty())
        std::printf("%s: OK (%zu rows, schema v%d)\n", path,
                    r.rows.size(), r.schemaVersion);
    else
        std::printf("%s: OK but PARTIAL (%zu rows, %zu failed "
                    "cell(s), schema v%d)\n",
                    path, r.rows.size(), r.annotations.size(),
                    r.schemaVersion);
    if (monotone_upsets)
        return checkMonotoneUpsets(r, path, monotone_tolerance_pp);
    return 0;
}

int
cmdManifest(const char *path)
{
    const RunManifest m = RunManifest::load(path);
    const std::size_t done = m.done(), failed = m.failed();
    const std::size_t pending = m.cells().size() - done - failed;
    std::printf("%s: campaign '%s', %zu cell(s): %zu done, "
                "%zu failed, %zu pending\n",
                path, m.experiment().c_str(), m.cells().size(), done,
                failed, pending);
    for (const auto &c : m.cells()) {
        if (c.status == CellRecord::Status::Failed)
            std::printf("  FAILED  %s (%u attempts): %s\n",
                        c.key.c_str(), c.attempts, c.error.c_str());
        else if (c.status == CellRecord::Status::Pending)
            std::printf("  pending %s\n", c.key.c_str());
    }
    return failed ? 1 : 0;
}

/** A named metric from a report's snapshot, or NAN when absent. */
double
metricValue(const RunReport &r, const char *name)
{
    if (!r.metrics.isObject())
        return NAN;
    const auto *v = r.metrics.find(name);
    return v && v->isNumber() ? v->asNumber() : NAN;
}

/**
 * One line per RunReport in a directory (the shape bpsweep
 * --report-dir writes): artifact name, row count, suite-cell wall
 * time, trace-cache hits. Files that do not parse as reports are
 * listed as skipped; only a missing directory is an error.
 */
int
cmdSummary(const char *dir)
{
    if (!std::filesystem::is_directory(dir)) {
        std::fprintf(stderr, "bpstat: not a directory: %s\n", dir);
        return 3;
    }
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());

    std::printf("%-28s %8s %12s %12s %8s %7s %13s %11s  %s\n",
                "artifact", "rows", "wall ms", "cache hits",
                "steals", "peak q", "batched-cells", "batch-width",
                "file");
    std::size_t reports = 0;
    for (const auto &path : paths) {
        RunReport r;
        try {
            r = load(path.c_str());
        } catch (const RunReportError &e) {
            std::fprintf(stderr, "bpstat: skipping %s: %s\n",
                         path.c_str(), e.what());
            continue;
        }
        ++reports;
        const std::string file =
            std::filesystem::path(path).filename().string();
        std::printf("%-28s %8zu", r.experiment.c_str(),
                    r.rows.size());
        const double wall =
            metricValue(r, "parallel.pool.wall_ms");
        if (std::isnan(wall))
            std::printf(" %12s", "-");
        else
            std::printf(" %12.0f", wall);
        const double hits = metricValue(r, "trace.cache.hits");
        if (std::isnan(hits))
            std::printf(" %12s", "-");
        else
            std::printf(" %12.0f", hits);
        // Present only in reports written by a bpsweep run, where
        // the shared scheduler stamps its counters into every
        // artifact's registry; standalone reports show "-".
        const double steals =
            metricValue(r, "parallel.scheduler.steals");
        if (std::isnan(steals))
            std::printf(" %8s", "-");
        else
            std::printf(" %8.0f", steals);
        const double peakq =
            metricValue(r, "parallel.scheduler.peak_active_queues");
        if (std::isnan(peakq))
            std::printf(" %7s", "-");
        else
            std::printf(" %7.0f", peakq);
        // Stamped by suiteAccuracyReportEnsemble: how many cells
        // rode a batched group, and the widest group formed. "-"
        // for artifacts that never route through the engine.
        const double batched =
            metricValue(r, "core.ensemble.batched_cells");
        if (std::isnan(batched))
            std::printf(" %13s", "-");
        else
            std::printf(" %13.0f", batched);
        const double bwidth =
            metricValue(r, "core.ensemble.batch_width");
        if (std::isnan(bwidth))
            std::printf(" %11s", "-");
        else
            std::printf(" %11.0f", bwidth);
        std::printf("  %s\n", file.c_str());

        // Resilience view: artifacts that model protected state
        // (study_protection_surface) publish per-policy tax gauges;
        // surface them inline so the cost of each ECC choice is
        // readable next to the run that measured it.
        if (r.metrics.isObject()) {
            struct Taxes
            {
                double storagePct = NAN;
                double delayCycles = NAN;
            };
            std::map<std::string, Taxes> byPolicy;
            for (const auto &[name, value] : r.metrics.members()) {
                if (!value.isNumber())
                    continue;
                static const std::string kStorage =
                    "robust.protection.storage_tax_pct{policy=";
                static const std::string kDelay =
                    "robust.protection.delay_tax_cycles{policy=";
                if (name.compare(0, kStorage.size(), kStorage) == 0)
                    byPolicy[name.substr(kStorage.size(),
                                         name.size() -
                                             kStorage.size() - 1)]
                        .storagePct = value.asNumber();
                else if (name.compare(0, kDelay.size(), kDelay) == 0)
                    byPolicy[name.substr(kDelay.size(),
                                         name.size() -
                                             kDelay.size() - 1)]
                        .delayCycles = value.asNumber();
            }
            for (const auto &[policy, t] : byPolicy) {
                std::printf("  %-26s", ("  policy " + policy).c_str());
                if (std::isnan(t.storagePct))
                    std::printf(" %14s", "-");
                else
                    std::printf(" storage %5.2f%%", t.storagePct);
                if (std::isnan(t.delayCycles))
                    std::printf(" %14s\n", "-");
                else
                    std::printf("  delay %+3.0f cyc\n",
                                t.delayCycles);
            }
        }
    }
    std::printf("%zu report(s)\n", reports);
    return 0;
}

/**
 * Summarise a bpsweep --timeline flight recording (Chrome
 * trace-event JSON): per-worker utilization against the sweep wall
 * time, steal counts, the slowest cells, and per-category totals so
 * pool/cache waits are attributable at a glance. Tolerates events it
 * does not recognise (the format is Perfetto's, not ours).
 */
int
cmdTimeline(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "bpstat: cannot open %s\n", path);
        return 3;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    bpsim::obs::Json doc;
    try {
        doc = bpsim::obs::Json::parse(buf.str());
    } catch (const bpsim::obs::JsonError &e) {
        std::fprintf(stderr, "bpstat: %s: %s\n", path, e.what());
        return 4;
    }
    const bpsim::obs::Json *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr,
                     "bpstat: %s: no traceEvents array\n", path);
        return 4;
    }

    struct ThreadAgg
    {
        std::string name;
        double busyUs = 0.0; ///< summed "cell" span durations
        std::size_t cells = 0;
        std::size_t steals = 0;
    };
    struct CatAgg
    {
        std::size_t count = 0;
        double totalUs = 0.0;
    };
    struct SlowCell
    {
        std::string name;
        double tid = 0.0;
        double cell = -1.0; ///< args.cell, -1 when absent
        double durUs = 0.0;
    };
    std::map<double, ThreadAgg> threads;
    std::map<std::string, CatAgg> cats;
    std::vector<SlowCell> slow;
    double minTs = HUGE_VAL, maxEnd = 0.0;
    std::size_t parsed = 0;
    for (const auto &ev : events->items()) {
        if (!ev.isObject())
            continue;
        const auto *ph = ev.find("ph");
        const auto *tid = ev.find("tid");
        if (!ph || !ph->isString() || !tid || !tid->isNumber())
            continue;
        const std::string &phase = ph->asString();
        ThreadAgg &t = threads[tid->asNumber()];
        if (phase == "M") {
            const auto *aobj = ev.find("args");
            const auto *nm =
                aobj && aobj->isObject() ? aobj->find("name") : nullptr;
            if (nm && nm->isString())
                t.name = nm->asString();
            continue;
        }
        const auto *ts = ev.find("ts");
        if (!ts || !ts->isNumber())
            continue;
        ++parsed;
        const auto *cat = ev.find("cat");
        const auto *name = ev.find("name");
        const std::string catStr =
            cat && cat->isString() ? cat->asString() : "";
        minTs = std::min(minTs, ts->asNumber());
        if (phase == "i") {
            maxEnd = std::max(maxEnd, ts->asNumber());
            if (catStr == "steal")
                ++t.steals;
            continue;
        }
        if (phase != "X")
            continue;
        const auto *dur = ev.find("dur");
        const double durUs =
            dur && dur->isNumber() ? dur->asNumber() : 0.0;
        maxEnd = std::max(maxEnd, ts->asNumber() + durUs);
        CatAgg &c = cats[catStr];
        ++c.count;
        c.totalUs += durUs;
        if (catStr == "cell") {
            t.busyUs += durUs;
            ++t.cells;
            SlowCell sc;
            sc.name = name && name->isString() ? name->asString()
                                               : "?";
            sc.tid = tid->asNumber();
            const auto *aobj = ev.find("args");
            const auto *ci =
                aobj && aobj->isObject() ? aobj->find("cell") : nullptr;
            if (ci && ci->isNumber())
                sc.cell = ci->asNumber();
            sc.durUs = durUs;
            slow.push_back(std::move(sc));
        }
    }
    if (parsed == 0) {
        std::fprintf(stderr, "bpstat: %s: no span events\n", path);
        return 4;
    }
    const double wallUs = maxEnd > minTs ? maxEnd - minTs : 0.0;
    std::printf("%s: %zu thread(s), %zu event(s), %.1f ms wall\n",
                path, threads.size(), parsed, wallUs / 1000.0);
    std::printf("\n%-24s %8s %8s %10s %8s\n", "thread", "cells",
                "steals", "busy ms", "util %");
    for (const auto &[tid, t] : threads) {
        std::string name = t.name;
        if (name.empty())
            name = "tid " + std::to_string(
                                static_cast<long long>(tid));
        // Utilization is meaningful for cell-executing threads; the
        // main/driver tracks show "-" rather than a misleading 0.
        std::printf("%-24s %8zu %8zu", name.c_str(), t.cells,
                    t.steals);
        if (t.cells > 0 && wallUs > 0.0)
            std::printf(" %10.1f %8.1f\n", t.busyUs / 1000.0,
                        100.0 * t.busyUs / wallUs);
        else
            std::printf(" %10s %8s\n", "-", "-");
    }

    std::printf("\n%-16s %8s %12s\n", "category", "count",
                "total ms");
    for (const auto &[cat, c] : cats)
        std::printf("%-16s %8zu %12.1f\n",
                    cat.empty() ? "(none)" : cat.c_str(), c.count,
                    c.totalUs / 1000.0);

    std::sort(slow.begin(), slow.end(),
              [](const SlowCell &a, const SlowCell &b) {
                  return a.durUs > b.durUs;
              });
    const std::size_t top = std::min<std::size_t>(10, slow.size());
    std::printf("\ntop %zu slowest cell(s):\n", top);
    for (std::size_t i = 0; i < top; ++i) {
        const SlowCell &sc = slow[i];
        if (sc.cell >= 0.0)
            std::printf("  %10.1f ms  %s cell %.0f\n",
                        sc.durUs / 1000.0, sc.name.c_str(), sc.cell);
        else
            std::printf("  %10.1f ms  %s\n", sc.durUs / 1000.0,
                        sc.name.c_str());
    }
    return 0;
}

/** Penalty attribution of a timing row as a fraction of cycles. */
double
penaltyShare(const RunReport::Row &r)
{
    return r.cycles ? static_cast<double>(r.flushCyclesTotal()) /
                          static_cast<double>(r.cycles)
                    : 0.0;
}

int
cmdDiff(const char *old_path, const char *new_path)
{
    const RunReport a = load(old_path);
    const RunReport b = load(new_path);
    header(a, old_path);
    header(b, new_path);

    std::map<std::string, const RunReport::Row *> olds;
    for (const auto &row : a.rows)
        olds.emplace(row.key(), &row);

    std::printf("\n%-44s %10s %10s %12s\n", "cell (wl|pred|mode|kB)",
                "d misp pp", "d IPC %", "d penalty pp");

    std::size_t matched = 0, regressions = 0;
    for (const auto &nw : b.rows) {
        const auto it = olds.find(nw.key());
        if (it == olds.end()) {
            std::printf("%-44s %34s\n", nw.key().c_str(),
                        "(new cell)");
            continue;
        }
        const RunReport::Row &od = *it->second;
        ++matched;
        const double d_misp =
            nw.mispredictPercent() - od.mispredictPercent();
        std::printf("%-44s %+10.3f", nw.key().c_str(), d_misp);
        double d_ipc = 0.0;
        if (nw.hasTiming && od.hasTiming && od.ipc() > 0.0) {
            d_ipc = 100.0 * (nw.ipc() - od.ipc()) / od.ipc();
            const double d_pen =
                100.0 * (penaltyShare(nw) - penaltyShare(od));
            std::printf(" %+10.3f %+12.3f\n", d_ipc, d_pen);
        } else {
            std::printf(" %10s %12s\n", "-", "-");
        }
        if (d_misp > 0.05 || d_ipc < -0.5)
            ++regressions;
        olds.erase(it);
    }
    for (const auto &[key, row] : olds) {
        (void)row;
        std::printf("%-44s %34s\n", key.c_str(), "(cell removed)");
    }

    std::printf("\n%zu cell(s) matched, %zu regression(s) "
                "(misp +0.05pp or IPC -0.5%%)\n",
                matched, regressions);
    return regressions ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    try {
        if ((cmd == "check" || cmd == "--check") && argc >= 3 &&
            argc <= 5) {
            bool monotone = false;
            double tolerance_pp = 0.05;
            if (argc >= 4) {
                if (std::strcmp(argv[3], "--monotone-upsets") != 0)
                    return usage();
                monotone = true;
                if (argc == 5) {
                    char *end = nullptr;
                    tolerance_pp = std::strtod(argv[4], &end);
                    if (end == argv[4] || *end != '\0' ||
                        tolerance_pp < 0.0)
                        return usage();
                }
            }
            return cmdCheck(argv[2], monotone, tolerance_pp);
        }
        if (cmd == "show" && argc == 3)
            return cmdShow(argv[2]);
        if (cmd == "diff" && argc == 4)
            return cmdDiff(argv[2], argv[3]);
        if (cmd == "summary" && argc == 3)
            return cmdSummary(argv[2]);
        if (cmd == "manifest" && argc == 3)
            return cmdManifest(argv[2]);
        if (cmd == "timeline" && argc == 3)
            return cmdTimeline(argv[2]);
    } catch (const RunReportIoError &e) {
        std::fprintf(stderr, "bpstat: %s\n", e.what());
        return 3;
    } catch (const RunReportSchemaError &e) {
        std::fprintf(stderr, "bpstat: %s\n", e.what());
        return 5;
    } catch (const RunReportParseError &e) {
        std::fprintf(stderr, "bpstat: %s\n", e.what());
        return 4;
    } catch (const RunReportError &e) {
        // Base-class fallback; treat as a parse-level failure.
        std::fprintf(stderr, "bpstat: %s\n", e.what());
        return 4;
    } catch (const RunManifestError &e) {
        const bool io =
            std::strstr(e.what(), "cannot open") != nullptr;
        std::fprintf(stderr, "bpstat: %s\n", e.what());
        return io ? 3 : 4;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bpstat: %s\n", e.what());
        return 4;
    }
    return usage();
}

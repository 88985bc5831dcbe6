/**
 * @file
 * bpsim command-line driver: one binary exposing the whole pipeline
 * — generate or load a trace, pick a predictor/budget/delay mode,
 * run accuracy and/or timing, optionally save the trace for reuse.
 *
 * Usage:
 *   cli --workload 176.gcc --ops 1000000 [--seed 42]
 *       [--predictor gshare.fast] [--budget-kb 64]
 *       [--mode pipelined|ideal|overriding|stall|dual-path|cascading]
 *       [--save-trace t.bpt | --load-trace t.bpt]
 *       [--timing] [--list]
 *       [--report out.json] [--trace events.jsonl]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/report_session.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

using namespace bpsim;

namespace {

const std::map<std::string, PredictorKind> kindByName = {
    {"bimodal", PredictorKind::Bimodal},
    {"gshare", PredictorKind::Gshare},
    {"bimode", PredictorKind::BiMode},
    {"2bc-gskew", PredictorKind::Gskew},
    {"ev6-tournament", PredictorKind::Tournament},
    {"perceptron", PredictorKind::Perceptron},
    {"multicomponent", PredictorKind::MultiComponent},
    {"gshare.fast", PredictorKind::GshareFast},
};

const std::map<std::string, DelayMode> modeByName = {
    {"ideal", DelayMode::Ideal},
    {"overriding", DelayMode::Overriding},
    {"stall", DelayMode::Stall},
    {"pipelined", DelayMode::Pipelined},
    {"dual-path", DelayMode::DualPath},
    {"cascading", DelayMode::Cascading},
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME] [--ops N] [--seed S]\n"
                 "          [--predictor NAME] [--budget-kb N] "
                 "[--mode MODE]\n"
                 "          [--save-trace FILE | --load-trace FILE]\n"
                 "          [--timing] [--list]\n"
                 "          [--report FILE] [--trace FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strips --report/--trace before the hand-rolled loop below, so
    // every binary shares the one observability-flag parser.
    obs::ReportSession session(argc, argv, "cli");
    std::string workload = "164.gzip";
    std::string predictor = "gshare.fast";
    std::string mode = "pipelined";
    std::string save_trace, load_trace;
    Counter ops = 500000;
    std::uint64_t seed = 42;
    std::size_t budget_kb = 64;
    bool timing = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return ++i < argc ? argv[i] : nullptr;
        };
        if (arg == "--list") {
            std::printf("workloads:\n");
            for (const auto &n : specint2000Names())
                std::printf("  %s\n", n.c_str());
            std::printf("predictors:\n");
            for (const auto &[n, k] : kindByName)
                std::printf("  %s\n", n.c_str());
            std::printf("modes:\n");
            for (const auto &[n, m] : modeByName)
                std::printf("  %s\n", n.c_str());
            return 0;
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--workload" && next()) {
            workload = argv[i];
        } else if (arg == "--predictor" && next()) {
            predictor = argv[i];
        } else if (arg == "--mode" && next()) {
            mode = argv[i];
        } else if (arg == "--ops" && next()) {
            ops = static_cast<Counter>(std::atoll(argv[i]));
        } else if (arg == "--seed" && next()) {
            seed = static_cast<std::uint64_t>(std::atoll(argv[i]));
        } else if (arg == "--budget-kb" && next()) {
            budget_kb = static_cast<std::size_t>(std::atoll(argv[i]));
        } else if (arg == "--save-trace" && next()) {
            save_trace = argv[i];
        } else if (arg == "--load-trace" && next()) {
            load_trace = argv[i];
        } else {
            return usage(argv[0]);
        }
    }

    if (kindByName.count(predictor) == 0 ||
        modeByName.count(mode) == 0)
        return usage(argv[0]);

    // --- obtain the trace -------------------------------------------
    TraceBuffer trace;
    try {
        if (!load_trace.empty()) {
            trace = readTrace(load_trace);
            std::printf("loaded %zu ops from %s\n", trace.size(),
                        load_trace.c_str());
        } else {
            const auto w = makeWorkload(workload);
            if (!w) {
                std::fprintf(stderr, "unknown workload '%s'\n",
                             workload.c_str());
                return 1;
            }
            trace = generateTrace(*w, ops, seed);
            std::printf("generated %zu ops of %s (seed %llu)\n",
                        trace.size(), workload.c_str(),
                        static_cast<unsigned long long>(seed));
        }
        if (!save_trace.empty()) {
            writeTraceV3(trace, save_trace);
            std::printf("saved trace to %s\n", save_trace.c_str());
        }
    } catch (const TraceIoError &e) {
        std::fprintf(stderr, "trace I/O error: %s\n", e.what());
        return 1;
    }

    const PredictorKind kind = kindByName.at(predictor);
    const DelayMode delay_mode = modeByName.at(mode);

    session.report().opsPerWorkload = trace.size();
    session.report().seed = seed;

    // --- accuracy ------------------------------------------------------
    auto pred = makePredictor(kind, budget_kb * 1024);
    const auto acc = runAccuracy(*pred, trace);
    std::printf("%s @ %zuKB (actual %zuKB): %llu branches, "
                "%.2f%% mispredicted\n",
                predictor.c_str(), budget_kb,
                pred->storageBytes() / 1024,
                static_cast<unsigned long long>(acc.branches),
                acc.percent());
    if (!timing && session.wantReport())
        session.report().rows.push_back(
            reportRow(workload, predictor, budget_kb * 1024, acc));

    // --- timing --------------------------------------------------------
    if (timing) {
        CoreConfig cfg;
        auto fp =
            makeFetchPredictor(kind, budget_kb * 1024, delay_mode);
        const auto r = runTiming(cfg, *fp, trace, session.tracer());
        if (session.wantReport()) {
            session.report().rows.push_back(reportRow(
                workload, predictor, mode, budget_kb * 1024, cfg, r));
            r.publishMetrics(session.metrics(), workload);
        }
        std::printf(
            "timing (%s, latency %u): IPC %.3f over %llu cycles\n",
            mode.c_str(), predictorLatencyCycles(kind, budget_kb * 1024),
            r.ipc(), static_cast<unsigned long long>(r.cycles));
        std::printf(
            "  stalls: mispredict %llu, icache %llu, front-end %llu "
            "cycles; bubbles %llu\n",
            static_cast<unsigned long long>(r.mispredictWaitCycles),
            static_cast<unsigned long long>(r.icacheStallCycles),
            static_cast<unsigned long long>(r.frontEndStallCycles),
            static_cast<unsigned long long>(r.overridingBubbleCycles));
    }
    return session.finish() ? 0 : 1;
}

/**
 * @file
 * Soft-error resilience study: predictor accuracy and IPC under SRAM
 * single-event upsets.
 *
 * Predictor state is architecturally invisible — a flipped PHT bit
 * can only cost accuracy, never correctness — so complex predictors
 * should degrade *gracefully* as the upset rate climbs. This study
 * bombards the five headline predictors at the 64KB budget with
 * upset rates from 0 to 1e-2 flips/bit/event (one event every 256
 * branches) and reports mean misprediction per rate, plus a
 * gshare.fast timing sweep showing the IPC cost of the same upsets.
 *
 * Every cell runs through the HardenedSuiteRunner: pass
 * `--manifest FILE` and a killed campaign restarted with the same
 * file resumes from the first incomplete cell, producing a final
 * --report byte-identical to an uninterrupted run.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "artifact_registry.hh"
#include "common/stats.hh"
#include "robust/fault_injector.hh"
#include "robust/hardened_runner.hh"

namespace bpsim {

namespace {

/** "0", "1e-06", ... — stable across platforms for row keys. */
std::string
rateLabel(double rate)
{
    if (rate == 0.0)
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", rate);
    return buf;
}

/** Predictor label with the swept upset rate folded in, so every
 *  (workload, predictor) row key stays unique: "gshare@u=1e-05". */
std::string
cellLabel(PredictorKind kind, double rate)
{
    return kindName(kind) + "@u=" + rateLabel(rate);
}

/** Per-cell fault seed: same campaign => same flip sequence, but no
 *  two cells share one. */
std::uint64_t
cellSeed(std::size_t kind_i, std::size_t rate_i, std::size_t wl_i)
{
    return 0x5eedfa17 + kind_i * 1000003 + rate_i * 997 + wl_i;
}

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Soft-error study",
                "accuracy/IPC vs SRAM upset rate at 64KB", ops);
    SuiteTraces suite(ops, 42, ctx.pool(), /*shared_pool=*/true);
    suite.describe(ctx.report());
    CoreConfig cfg;

    const std::size_t budget = 64 * 1024;
    const std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};
    const std::vector<PredictorKind> kinds = {
        PredictorKind::Gshare,        PredictorKind::GshareFast,
        PredictorKind::Perceptron,    PredictorKind::MultiComponent,
        PredictorKind::Gskew,
    };

    robust::HardenedRunSummary summary;
    if (ctx.manifestPath().empty()) {
        // No manifest, no resume granularity to honour: run the
        // sweep through the suite entry points, one cell per
        // (config, workload).
        std::vector<AccuracyCellConfig> acc;
        for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
            for (std::size_t ri = 0; ri < rates.size(); ++ri) {
                const PredictorKind kind = kinds[ki];
                const double rate = rates[ri];
                AccuracyCellConfig c;
                c.makeForWorkload = [kind, rate, budget, ki,
                                     ri](std::size_t wi) {
                    robust::FaultPlan plan;
                    plan.upsetRatePerBit = rate;
                    plan.intervalBranches = 256;
                    plan.seed = cellSeed(ki, ri, wi);
                    return std::unique_ptr<DirectionPredictor>(
                        std::make_unique<
                            robust::FaultInjectingPredictor>(
                            makePredictor(kind, budget), plan));
                };
                c.name = cellLabel(kind, rate);
                c.budgetBytes = budget;
                acc.push_back(std::move(c));
            }
        }
        std::vector<TimingCellConfig> tim;
        for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            const double rate = rates[ri];
            TimingCellConfig c;
            c.makeForWorkload = [rate, budget, ri](std::size_t wi) {
                robust::FaultPlan plan;
                plan.upsetRatePerBit = rate;
                plan.intervalBranches = 256;
                plan.seed = cellSeed(99, ri, wi);
                return std::unique_ptr<FetchPredictor>(
                    std::make_unique<
                        robust::FaultInjectingFetchPredictor>(
                        makeFetchPredictor(PredictorKind::GshareFast,
                                           budget,
                                           DelayMode::Pipelined),
                        plan));
            };
            c.name = cellLabel(PredictorKind::GshareFast, rate);
            c.mode = delayModeName(DelayMode::Pipelined);
            c.budgetBytes = budget;
            c.cfg = cfg;
            tim.push_back(std::move(c));
        }
        suiteAccuracyReportEnsemble(suite, acc, ctx.report(),
                                    ctx.metricsIfEnabled(),
                                    ctx.pool());
        suiteTimingReportEnsemble(suite, tim, ctx.report(),
                                  ctx.metricsIfEnabled(), nullptr,
                                  ctx.pool(), ctx.timingMemo());
        summary.completed =
            (acc.size() + tim.size()) * suite.size();
    } else {
    // A manifest was passed: keep the serial HardenedSuiteRunner
    // path, whose one-cell-per-point granularity is what resume
    // depends on. One cell per (workload, predictor, rate) so resume
    // granularity matches report granularity. Accuracy cells for all
    // five predictors; timing cells for the pipelined gshare.fast
    // only (the timing core dominates runtime).
    std::vector<robust::SuiteCell> cells;
    for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
        for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            const PredictorKind kind = kinds[ki];
            const double rate = rates[ri];
            const std::string label = cellLabel(kind, rate);
            for (std::size_t wi = 0; wi < suite.size(); ++wi) {
                obs::RunReport::Row probe;
                probe.workload = suite.name(wi);
                probe.predictor = label;
                probe.budgetBytes = budget;
                cells.push_back(
                    {probe.key(),
                     [&suite, kind, rate, label, budget, ki, ri,
                      wi](const robust::Deadline &deadline) {
                         robust::FaultPlan plan;
                         plan.upsetRatePerBit = rate;
                         plan.intervalBranches = 256;
                         plan.seed = cellSeed(ki, ri, wi);
                         robust::FaultInjectingPredictor pred(
                             makePredictor(kind, budget), plan);
                         const AccuracyResult r = runAccuracy(
                             pred, suite.trace(wi),
                             [&deadline] {
                                 deadline.check("accuracy cell");
                             });
                         return reportRow(suite.name(wi), label,
                                          budget, r);
                     }});
            }
        }
    }
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
        const double rate = rates[ri];
        const std::string label =
            cellLabel(PredictorKind::GshareFast, rate);
        for (std::size_t wi = 0; wi < suite.size(); ++wi) {
            obs::RunReport::Row probe;
            probe.workload = suite.name(wi);
            probe.predictor = label;
            probe.mode = delayModeName(DelayMode::Pipelined);
            probe.budgetBytes = budget;
            cells.push_back(
                {probe.key(),
                 [&suite, &cfg, rate, label, budget, ri,
                  wi](const robust::Deadline &) {
                     robust::FaultPlan plan;
                     plan.upsetRatePerBit = rate;
                     plan.intervalBranches = 256;
                     plan.seed = cellSeed(99, ri, wi);
                     robust::FaultInjectingFetchPredictor pred(
                         makeFetchPredictor(PredictorKind::GshareFast,
                                            budget,
                                            DelayMode::Pipelined),
                         plan);
                     const SimResult r =
                         runTiming(cfg, pred, suite.trace(wi));
                     return reportRow(
                         suite.name(wi), label,
                         delayModeName(DelayMode::Pipelined), budget,
                         cfg, r);
                 }});
        }
    }

    // Generous per-cell watchdog: any wedged cell is timed out,
    // retried, and at worst annotated instead of hanging the sweep.
    robust::HardenedSuiteRunner runner(ctx.manifestPath(),
                                       robust::RetryPolicy{},
                                       std::chrono::minutes{5},
                                       ctx.pool());
    summary = runner.run(cells, ctx.report());
    }

    // Reduce report rows back to the study tables.
    std::map<std::string, std::vector<double>> misp, ipcs;
    for (const auto &row : ctx.report().rows) {
        if (row.hasTiming)
            ipcs[row.predictor].push_back(row.ipc());
        else
            misp[row.predictor].push_back(row.mispredictPercent());
    }

    ctx.printf("\nmean misprediction (%%) vs upset rate "
               "(flips/bit/event, event every 256 branches)\n");
    ctx.printf("%-10s", "rate");
    for (auto k : kinds)
        ctx.printf("%16s", kindName(k).c_str());
    ctx.printf("\n");
    for (double rate : rates) {
        ctx.printf("%-10s", rateLabel(rate).c_str());
        for (auto k : kinds) {
            const auto it = misp.find(cellLabel(k, rate));
            if (it == misp.end())
                ctx.printf("%16s", "-");
            else
                ctx.printf("%16.3f", arithmeticMean(it->second));
        }
        ctx.printf("\n");
    }

    ctx.printf("\ngshare.fast harmonic-mean IPC vs upset rate\n");
    ctx.printf("%-10s %12s\n", "rate", "IPC");
    for (double rate : rates) {
        const auto it =
            ipcs.find(cellLabel(PredictorKind::GshareFast, rate));
        if (it == ipcs.end())
            ctx.printf("%-10s %12s\n", rateLabel(rate).c_str(), "-");
        else
            ctx.printf("%-10s %12.3f\n", rateLabel(rate).c_str(),
                       harmonicMean(it->second));
    }

    ctx.printf("\ncells: %zu completed, %zu resumed from manifest, "
               "%zu failed (%zu retries)\n",
               summary.completed, summary.resumed, summary.failed,
               summary.retries);
    if (!ctx.manifestPath().empty())
        ctx.printf("manifest: %s\n", ctx.manifestPath().c_str());

    return summary.allOk() ? 0 : 1;
}

} // namespace

const ArtifactDef &
studySoftErrorArtifact()
{
    static const ArtifactDef def = {
        {"study_soft_error",
         "Soft-error study: accuracy/IPC vs SRAM upset rate at 64KB",
         250000, true, "[--manifest FILE]"},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::studySoftErrorArtifact(), argc,
                               argv);
}
#endif

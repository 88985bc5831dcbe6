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
 * One cell per (configuration, workload), run through the suite
 * entry points like every other artifact: a cell that throws fails
 * the study, so no table is ever built from a partial sweep.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "artifact_registry.hh"
#include "common/stats.hh"
#include "robust/fault_injector.hh"

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
    const SuiteTraces suite = ctx.suite(ops);
    suite.describe(ctx.report());
    CoreConfig cfg;

    const std::size_t budget = 64 * 1024;
    const std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};
    const std::vector<PredictorKind> kinds = {
        PredictorKind::Gshare,        PredictorKind::GshareFast,
        PredictorKind::Perceptron,    PredictorKind::MultiComponent,
        PredictorKind::Gskew,
    };

    // One accuracy cell per (predictor, rate) for all five
    // predictors; timing cells for the pipelined gshare.fast only
    // (the timing core dominates runtime).
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
                    std::make_unique<robust::FaultInjectingPredictor>(
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
            return std::make_unique<FetchPredictor>(
                DelayMode::Ideal,
                std::make_unique<robust::FaultInjectingPredictor>(
                    makePredictor(PredictorKind::GshareFast, budget),
                    plan));
        };
        c.name = cellLabel(PredictorKind::GshareFast, rate);
        c.mode = delayModeName(DelayMode::Pipelined);
        c.budgetBytes = budget;
        c.cfg = cfg;
        tim.push_back(std::move(c));
    }
    suiteAccuracyReportEnsemble(suite, acc, ctx.report(),
                                ctx.metricsIfEnabled(), ctx.pool());
    suiteTimingReportEnsemble(suite, tim, ctx.report(),
                              ctx.metricsIfEnabled(), nullptr,
                              ctx.pool(), ctx.timingMemo());

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
        for (auto k : kinds)
            ctx.printf("%16.3f",
                       arithmeticMean(misp.at(cellLabel(k, rate))));
        ctx.printf("\n");
    }

    ctx.printf("\ngshare.fast harmonic-mean IPC vs upset rate\n");
    ctx.printf("%-10s %12s\n", "rate", "IPC");
    for (double rate : rates)
        ctx.printf("%-10s %12.3f\n", rateLabel(rate).c_str(),
                   harmonicMean(ipcs.at(
                       cellLabel(PredictorKind::GshareFast, rate))));
    return 0;
}

} // namespace

const ArtifactDef &
studySoftErrorArtifact()
{
    static const ArtifactDef def = {
        {"study_soft_error",
         "Soft-error study: accuracy/IPC vs SRAM upset rate at 64KB",
         250000},
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

/**
 * @file
 * E10 / Section 4.5: why overriding hurts — the quick and slow
 * predictors disagree often, and every disagreement costs a bubble
 * equal to the slow predictor's latency. The paper reports the
 * perceptron overriding its quick predictor 7.38% of the time on
 * average, and the multi-component predictor disagreeing 18.1% of
 * the time on 300.twolf.
 *
 * This bench reports per-benchmark disagreement rates for both
 * complex predictors at the 64KB budget, plus the share of cycles
 * lost to overriding bubbles.
 */

#include <memory>
#include <vector>

#include "artifact_registry.hh"
#include "common/stats.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Section 4.5 study",
                "overriding disagreement rates at 64KB", ops);
    SuiteTraces suite(ops, 42, ctx.pool(), /*shared_pool=*/true);
    CoreConfig cfg;
    suite.describe(ctx.report());

    for (auto kind :
         {PredictorKind::Perceptron, PredictorKind::MultiComponent}) {
        ctx.printf("\n-- %s (latency %u cycles) --\n",
                   kindName(kind).c_str(),
                   predictorLatencyCycles(kind, 64 * 1024));
        ctx.printf("%-12s %-16s %-16s %-14s\n", "benchmark",
                   "disagree (%)", "bubble cyc (%)", "IPC");
        std::vector<double> rates;
        // Per-workload cells on the pool; predictors stay alive past
        // compute so their disagreement counters can be read at
        // commit time, in workload order. An event tracer needs one
        // ordered stream, so it forces the serial path.
        std::vector<std::unique_ptr<FetchPredictor>> preds(
            suite.size());
        std::vector<SimResult> results(suite.size());
        const auto compute = [&](std::size_t i) {
            preds[i] = makeFetchPredictor(kind, 64 * 1024,
                                          DelayMode::Overriding);
            results[i] =
                ctx.tracer()
                    ? runTiming(cfg, *preds[i], suite.trace(i),
                                ctx.tracer())
                    : runTiming(cfg, *preds[i], suite, i,
                                ctx.timingMemo());
        };
        const auto commit = [&](std::size_t i) {
            const auto &r = results[i];
            auto *over = dynamic_cast<OverridingFetchPredictor *>(
                preds[i].get());
            ctx.report().rows.push_back(reportRow(
                suite.name(i), kindName(kind),
                delayModeName(DelayMode::Overriding), 64 * 1024, cfg,
                r));
            if (auto *reg = ctx.metricsIfEnabled()) {
                r.publishMetrics(*reg, suite.name(i));
                reg->gauge("fetch.overriding.disagree_percent{"
                           "predictor=" +
                           kindName(kind) +
                           ",workload=" + suite.name(i) + "}")
                    .set(over ? over->disagreements().percent() : 0.0);
            }
            const double dis =
                over ? over->disagreements().percent() : 0.0;
            rates.push_back(dis);
            ctx.printf("%-12s %-16.2f %-16.2f %-14.3f\n",
                       shortName(suite.name(i)).c_str(), dis,
                       100.0 *
                           static_cast<double>(
                               r.overridingBubbleCycles) /
                           static_cast<double>(r.cycles),
                       r.ipc());
            preds[i].reset();
        };
        if (ctx.tracer()) {
            for (std::size_t i = 0; i < suite.size(); ++i) {
                compute(i);
                commit(i);
            }
        } else {
            ctx.pool()->run(suite.size(), compute, commit);
        }
        ctx.printf("%-12s %-16.2f\n", "arith.mean",
                   arithmeticMean(rates));
    }

    ctx.printf("\nPaper reference: perceptron overrides 7.38%% of "
               "predictions on average;\nmulticomponent disagrees "
               "18.1%% of the time on 300.twolf.\n");
    return 0;
}

} // namespace

const ArtifactDef &
studyDisagreementArtifact()
{
    static const ArtifactDef def = {
        {"study_disagreement",
         "Section 4.5 study: overriding disagreement rates at 64KB",
         800000, false, ""},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::studyDisagreementArtifact(),
                               argc, argv);
}
#endif

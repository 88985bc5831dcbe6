/**
 * @file
 * E2 / Figure 2: harmonic-mean IPC of the perceptron and
 * multi-component predictors with (a) ideal zero-delay access and
 * (b) realistic overriding (quick 2K gshare in front, disagreement
 * bubbles equal to the slow predictor's latency), over 16KB-512KB.
 *
 * Paper reading: ideal IPC rises with budget; realistic IPC peaks at
 * a moderate budget and *declines* at large ones — the 512KB
 * perceptron loses ~11% IPC against its 32KB version. This is the
 * paper's motivating result.
 */

#include <vector>

#include "artifact_registry.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Figure 2",
                "harmonic-mean IPC: zero-delay vs overriding", ops);
    const SuiteTraces suite = ctx.suite(ops);
    CoreConfig cfg;

    const std::vector<PredictorKind> kinds = {
        PredictorKind::Perceptron,
        PredictorKind::MultiComponent,
    };

    // Cells in report row order (budget, kind, ideal then
    // overriding).
    std::vector<TimingCellConfig> cells;
    for (std::size_t budget : largeBudgetsBytes())
        for (auto k : kinds)
            for (const DelayMode mode :
                 {DelayMode::Ideal, DelayMode::Overriding})
                cells.push_back(
                    {[k, budget, mode] {
                         return makeFetchPredictor(k, budget, mode);
                     },
                     kindName(k),
                     delayModeName(mode),
                     budget,
                     cfg});
    suiteTimingReportEnsemble(suite, cells, ctx.report(),
                              ctx.metricsIfEnabled(), ctx.tracer(),
                              ctx.pool(), ctx.timingMemo());

    ctx.printf("%-8s", "budget");
    for (auto k : kinds) {
        ctx.printf(" %21s", (kindName(k) + " (ideal)").c_str());
        ctx.printf(" %21s", (kindName(k) + " (overr.)").c_str());
        ctx.printf(" %5s", "lat");
    }
    ctx.printf("\n");

    std::size_t cell = 0;
    for (std::size_t budget : largeBudgetsBytes()) {
        ctx.printf("%-8s", budgetLabel(budget).c_str());
        for (auto k : kinds) {
            const double ideal = cells[cell++].harmonicMeanIpc;
            const double over = cells[cell++].harmonicMeanIpc;
            ctx.printf(" %21.3f %21.3f %5u", ideal, over,
                       predictorLatencyCycles(k, budget));
        }
        ctx.printf("\n");
    }

    ctx.printf("\n(\"lat\" = modelled access latency in cycles; the "
               "overriding penalty per disagreement)\n");
    return 0;
}

} // namespace

const ArtifactDef &
fig2IdealVsOverridingArtifact()
{
    static const ArtifactDef def = {
        {"fig2_ideal_vs_overriding",
         "Figure 2: harmonic-mean IPC, zero-delay vs overriding",
         800000},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(
        bpsim::fig2IdealVsOverridingArtifact(), argc, argv);
}
#endif

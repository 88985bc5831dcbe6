/**
 * @file
 * Section 2.6 ablation: overriding vs the alternative delay-hiding
 * organizations the paper discusses — stalling (no hiding at all),
 * dual-path fetch (AMD Hammer style), and cascading (use the slow
 * answer for the branch's next instance).
 *
 * Paper reading: "Overriding has been shown to yield better
 * performance [7] than other proposed delay-hiding schemes such as
 * lookahead [21] and cascading [7, 4]" — and of course every scheme
 * loses to a predictor that needs no hiding at all, which is
 * gshare.fast's point.
 */

#include <vector>

#include "artifact_registry.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Section 2.6 ablation",
                "delay-hiding schemes for the perceptron predictor",
                ops);
    const SuiteTraces suite = ctx.suite(ops);
    CoreConfig cfg;

    const std::vector<DelayMode> modes = {
        DelayMode::Ideal,    DelayMode::Overriding,
        DelayMode::Cascading, DelayMode::DualPath,
        DelayMode::Stall,
    };

    // Cells in report row order (budget, mode).
    const std::size_t budgets[] = {64u * 1024, 256u * 1024,
                                   512u * 1024};
    std::vector<TimingCellConfig> cells;
    for (const std::size_t budget : budgets)
        for (auto m : modes)
            cells.push_back(
                {[budget, m] {
                     return makeFetchPredictor(
                         PredictorKind::Perceptron, budget, m);
                 },
                 kindName(PredictorKind::Perceptron),
                 delayModeName(m),
                 budget,
                 cfg});
    suiteTimingReportEnsemble(suite, cells, ctx.report(),
                              ctx.metricsIfEnabled(), ctx.tracer(),
                              ctx.pool(), ctx.timingMemo());

    ctx.printf("%-8s %6s", "budget", "lat");
    for (auto m : modes)
        ctx.printf("%14s", delayModeName(m).c_str());
    ctx.printf("\n");

    std::size_t cell = 0;
    for (const std::size_t budget : budgets) {
        ctx.printf("%-8s %6u", budgetLabel(budget).c_str(),
                   predictorLatencyCycles(PredictorKind::Perceptron,
                                          budget));
        for (std::size_t m = 0; m < modes.size(); ++m)
            ctx.printf("%14.3f", cells[cell++].harmonicMeanIpc);
        ctx.printf("\n");
    }

    ctx.printf("\n(harmonic-mean IPC; 'ideal' is the unreachable "
               "zero-delay upper bound)\n");
    return 0;
}

} // namespace

const ArtifactDef &
ablationDelayHidingArtifact()
{
    static const ArtifactDef def = {
        {"ablation_delay_hiding",
         "Section 2.6 ablation: delay-hiding schemes (perceptron)",
         600000},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::ablationDelayHidingArtifact(),
                               argc, argv);
}
#endif

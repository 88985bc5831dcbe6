/**
 * @file
 * E5 / Figure 5: arithmetic-mean misprediction rates of the four
 * large predictors (multi-component, 2Bc-gskew, perceptron,
 * gshare.fast) at 16KB-512KB budgets.
 *
 * Paper reading: the complex predictors hold a modest accuracy edge
 * over gshare.fast at every budget (about one percentage point at
 * 64KB: perceptron 3.6% vs gshare.fast 4.4% in the paper), and the
 * ordering perceptron < multi-component < 2Bc-gskew < gshare.fast
 * is stable.
 */

#include "artifact_registry.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Figure 5",
                "arithmetic-mean misprediction (%) of the four large "
                "predictors",
                ops);
    SuiteTraces suite(ops, 42, ctx.pool(), /*shared_pool=*/true);

    ctx.printf("%-8s", "budget");
    for (auto k : largePredictorKinds())
        ctx.printf("%16s", kindName(k).c_str());
    ctx.printf("\n");

    // Same structure as Figure 1: list the cells in the serial row
    // order; the perceptron budgets replay as one group per trace.
    std::vector<AccuracyCellConfig> cells;
    for (std::size_t budget : largeBudgetsBytes())
        for (auto k : largePredictorKinds()) {
            AccuracyCellConfig c;
            c.make = [k, budget] { return makePredictor(k, budget); };
            c.name = kindName(k);
            c.budgetBytes = budget;
            cells.push_back(std::move(c));
        }
    suiteAccuracyReportEnsemble(suite, cells, ctx.report(),
                                ctx.metricsIfEnabled(), ctx.pool());

    std::size_t cell = 0;
    for (std::size_t budget : largeBudgetsBytes()) {
        ctx.printf("%-8s", budgetLabel(budget).c_str());
        for ([[maybe_unused]] auto k : largePredictorKinds())
            ctx.printf("%16.2f", cells[cell++].meanPercent);
        ctx.printf("\n");
    }
    return 0;
}

} // namespace

const ArtifactDef &
fig5AccuracyLargeArtifact()
{
    static const ArtifactDef def = {
        {"fig5_accuracy_large",
         "Figure 5: mean misprediction (%) of the large predictors",
         1200000, false, ""},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::fig5AccuracyLargeArtifact(),
                               argc, argv);
}
#endif

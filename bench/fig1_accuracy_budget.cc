/**
 * @file
 * E1 / Figure 1: arithmetic-mean SPECint misprediction rates of
 * gshare, bi-mode, the multi-component hybrid and the perceptron,
 * swept over hardware budgets from 2KB to 512KB.
 *
 * Paper reading: all predictors improve with budget; the perceptron
 * and multi-component hybrid are the most accurate at every point;
 * bi-mode beats gshare.
 */

#include <vector>

#include "artifact_registry.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Figure 1",
                "arithmetic-mean misprediction (%) vs hardware budget",
                ops);
    SuiteTraces suite(ops, 42, ctx.pool(), /*shared_pool=*/true);

    const std::vector<PredictorKind> kinds = {
        PredictorKind::Gshare,
        PredictorKind::BiMode,
        PredictorKind::MultiComponent,
        PredictorKind::Perceptron,
    };

    ctx.printf("%-16s", "budget");
    for (auto k : kinds)
        ctx.printf("%16s", kindName(k).c_str());
    ctx.printf("\n");

    // Budget-major, kind-minor — the row order of the serial sweep.
    // The perceptron budgets replay as one group per trace; rows and
    // means come out byte-identical to running each cell on its own.
    std::vector<AccuracyCellConfig> cells;
    for (std::size_t budget : figure1BudgetsBytes())
        for (auto k : kinds) {
            AccuracyCellConfig c;
            c.make = [k, budget] { return makePredictor(k, budget); };
            c.name = kindName(k);
            c.budgetBytes = budget;
            cells.push_back(std::move(c));
        }
    suiteAccuracyReportEnsemble(suite, cells, ctx.report(),
                                ctx.metricsIfEnabled(), ctx.pool());

    std::size_t cell = 0;
    for (std::size_t budget : figure1BudgetsBytes()) {
        ctx.printf("%-16s", budgetLabel(budget).c_str());
        for ([[maybe_unused]] auto k : kinds)
            ctx.printf("%16.2f", cells[cell++].meanPercent);
        ctx.printf("\n");
    }
    return 0;
}

} // namespace

const ArtifactDef &
fig1AccuracyBudgetArtifact()
{
    static const ArtifactDef def = {
        {"fig1_accuracy_budget",
         "Figure 1: mean misprediction (%) vs hardware budget",
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
    return bpsim::artifactMain(bpsim::fig1AccuracyBudgetArtifact(),
                               argc, argv);
}
#endif

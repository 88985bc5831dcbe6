/**
 * @file
 * E7 / Figure 7: harmonic-mean IPC of the four large predictors over
 * 16KB-512KB budgets, left graph (ideal single-cycle prediction for
 * everyone) and right graph (overriding for the complex predictors;
 * gshare.fast is pipelined and needs no delay hiding).
 *
 * Paper reading (the headline result): with ideal access the complex
 * predictors win slightly; with realistic overriding their advantage
 * vanishes and turns into a loss at large budgets, while
 * gshare.fast's IPC is identical in both graphs because pipelining
 * hides its delay completely.
 */

#include "artifact_registry.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Figure 7",
                "harmonic-mean IPC vs hardware budget", ops);
    const SuiteTraces suite = ctx.suite(ops);
    CoreConfig cfg;

    // Both graphs' cells in report row order (mode-major, budget,
    // kind).
    const DelayMode modes[] = {DelayMode::Ideal,
                               DelayMode::Overriding};
    std::vector<TimingCellConfig> cells;
    for (const DelayMode mode : modes)
        for (std::size_t budget : largeBudgetsBytes())
            for (auto k : largePredictorKinds())
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

    const char *titles[] = {
        "left graph: 1-cycle (ideal) prediction",
        "right graph: overriding prediction (gshare.fast pipelined)"};
    std::size_t cell = 0;
    for (const char *title : titles) {
        ctx.printf("\n-- %s --\n", title);
        ctx.printf("%-8s", "budget");
        for (auto k : largePredictorKinds())
            ctx.printf("%16s", kindName(k).c_str());
        ctx.printf("\n");
        for (std::size_t budget : largeBudgetsBytes()) {
            ctx.printf("%-8s", budgetLabel(budget).c_str());
            for (std::size_t k = 0;
                 k < largePredictorKinds().size(); ++k)
                ctx.printf("%16.3f",
                           cells[cell++].harmonicMeanIpc);
            ctx.printf("\n");
        }
    }
    return 0;
}

} // namespace

const ArtifactDef &
fig7IpcBudgetArtifact()
{
    static const ArtifactDef def = {
        {"fig7_ipc_budget",
         "Figure 7: harmonic-mean IPC vs hardware budget", 800000},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::fig7IpcBudgetArtifact(), argc,
                               argv);
}
#endif

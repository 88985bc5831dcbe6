/**
 * @file
 * E6 / Figure 6: per-benchmark misprediction rates of the complex
 * predictors and gshare.fast at the ~64KB budget point (the paper
 * uses the multi-component's 53KB configuration and 64KB for the
 * others), plus the arithmetic mean.
 */

#include <vector>

#include "artifact_registry.hh"
#include "common/stats.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Figure 6",
                "per-benchmark misprediction (%) at the 64KB budget",
                ops);
    const SuiteTraces suite = ctx.suite(ops);

    const std::vector<std::pair<PredictorKind, std::size_t>> configs = {
        {PredictorKind::MultiComponent, 53 * 1024},
        {PredictorKind::Gskew, 64 * 1024},
        {PredictorKind::Perceptron, 64 * 1024},
        {PredictorKind::GshareFast, 64 * 1024},
    };

    ctx.printf("%-12s", "benchmark");
    for (const auto &[k, b] : configs)
        ctx.printf("%16s", kindName(k).c_str());
    ctx.printf("\n");

    // Every kind appears once here, so no cells batch; routing
    // through the suite entry point keeps the reporting path uniform
    // with Figures 1 and 5.
    std::vector<AccuracyCellConfig> cells;
    for (const auto &[k, b] : configs) {
        AccuracyCellConfig c;
        c.make = [k = k, b = b] { return makePredictor(k, b); };
        c.name = kindName(k);
        c.budgetBytes = b;
        cells.push_back(std::move(c));
    }
    suiteAccuracyReportEnsemble(suite, cells, ctx.report(),
                                ctx.metricsIfEnabled(), ctx.pool());

    std::vector<std::vector<double>> per_kind(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (const auto &r : cells[c].results)
            per_kind[c].push_back(r.percent());

    for (std::size_t i = 0; i < suite.size(); ++i) {
        ctx.printf("%-12s", shortName(suite.name(i)).c_str());
        for (std::size_t c = 0; c < configs.size(); ++c)
            ctx.printf("%16.2f", per_kind[c][i]);
        ctx.printf("\n");
    }
    ctx.printf("%-12s", "arith.mean");
    for (std::size_t c = 0; c < configs.size(); ++c)
        ctx.printf("%16.2f", arithmeticMean(per_kind[c]));
    ctx.printf("\n");
    return 0;
}

} // namespace

const ArtifactDef &
fig6PerBenchmarkAccuracyArtifact()
{
    static const ArtifactDef def = {
        {"fig6_per_benchmark_accuracy",
         "Figure 6: per-benchmark misprediction (%) at 64KB",
         1200000},
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
        bpsim::fig6PerBenchmarkAccuracyArtifact(), argc, argv);
}
#endif

/**
 * @file
 * E8 / Figure 8: per-benchmark IPC at the ~53KB/64KB budget point
 * with realistic (overriding) implementations, plus harmonic and
 * arithmetic means.
 *
 * Paper reading: gshare.fast's harmonic-mean IPC edges out the
 * complex predictors (1.71-ish vs paper's perceptron/multicomponent
 * slightly below); some benchmarks favour the complex predictors
 * slightly, others favour gshare.fast.
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
    benchHeader(ctx, "Figure 8",
                "per-benchmark IPC at the 53KB/64KB budget "
                "(overriding implementations)",
                ops);
    const SuiteTraces suite = ctx.suite(ops);
    CoreConfig cfg;

    const std::vector<std::pair<PredictorKind, std::size_t>> configs = {
        {PredictorKind::MultiComponent, 53 * 1024},
        {PredictorKind::Gskew, 64 * 1024},
        {PredictorKind::Perceptron, 64 * 1024},
        {PredictorKind::GshareFast, 64 * 1024},
    };

    // One TimingCellConfig per column; every (column, workload)
    // cell is one independent core run on the pool.
    std::vector<TimingCellConfig> cells;
    for (const auto &[k, b] : configs)
        cells.push_back({[k = k, b = b] {
                             return makeFetchPredictor(
                                 k, b, DelayMode::Overriding);
                         },
                         kindName(k),
                         delayModeName(DelayMode::Overriding),
                         b,
                         cfg});
    suiteTimingReportEnsemble(suite, cells, ctx.report(),
                              ctx.metricsIfEnabled(), ctx.tracer(),
                              ctx.pool(), ctx.timingMemo());
    std::vector<std::vector<double>> ipc(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (const auto &r : cells[c].results)
            ipc[c].push_back(r.ipc());

    ctx.printf("%-12s", "benchmark");
    for (const auto &[k, b] : configs)
        ctx.printf("%16s", kindName(k).c_str());
    ctx.printf("\n");
    for (std::size_t i = 0; i < suite.size(); ++i) {
        ctx.printf("%-12s", shortName(suite.name(i)).c_str());
        for (std::size_t c = 0; c < configs.size(); ++c)
            ctx.printf("%16.3f", ipc[c][i]);
        ctx.printf("\n");
    }
    ctx.printf("%-12s", "harm.mean");
    for (std::size_t c = 0; c < configs.size(); ++c)
        ctx.printf("%16.3f", harmonicMean(ipc[c]));
    ctx.printf("\n%-12s", "arith.mean");
    for (std::size_t c = 0; c < configs.size(); ++c)
        ctx.printf("%16.3f", arithmeticMean(ipc[c]));
    ctx.printf("\n");
    return 0;
}

} // namespace

const ArtifactDef &
fig8PerBenchmarkIpcArtifact()
{
    static const ArtifactDef def = {
        {"fig8_per_benchmark_ipc",
         "Figure 8: per-benchmark IPC at 53KB/64KB (overriding)",
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
    return bpsim::artifactMain(bpsim::fig8PerBenchmarkIpcArtifact(),
                               argc, argv);
}
#endif

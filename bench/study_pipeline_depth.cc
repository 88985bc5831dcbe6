/**
 * @file
 * Pipeline-depth sensitivity study (the paper's premise, Section 1:
 * "the techniques used to hide the latency of a large and complex
 * branch predictor do not scale well and will be unable to sustain
 * IPC for deeper pipelines").
 *
 * Sweeps the front-end depth of the core and reports the IPC of the
 * 512KB perceptron under ideal access and under overriding, plus
 * gshare.fast — the deeper the pipe, the more each misprediction
 * costs, and the bigger the relative toll of overriding bubbles on
 * the fetch stream the back end is trying to stay fed from.
 */

#include <string>
#include <tuple>
#include <vector>

#include "artifact_registry.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Pipeline-depth study",
                "512KB predictors vs front-end depth", ops);
    SuiteTraces suite(ops, 42, ctx.pool(), /*shared_pool=*/true);

    // Cells in report row order (depth, then the three series);
    // TimingCellConfig carries the per-depth core config.
    const unsigned depths[] = {6u, 10u, 15u, 20u, 25u};
    const std::tuple<PredictorKind, DelayMode> series[] = {
        {PredictorKind::Perceptron, DelayMode::Ideal},
        {PredictorKind::Perceptron, DelayMode::Overriding},
        {PredictorKind::GshareFast, DelayMode::Pipelined},
    };
    std::vector<TimingCellConfig> cells;
    for (const unsigned depth : depths) {
        CoreConfig cfg;
        cfg.frontEndDepth = depth;
        // The swept axis (front-end depth) is folded into the mode
        // string so RunReport row keys stay unique across the sweep.
        const std::string depth_tag =
            "@depth" + std::to_string(depth);
        for (const auto &[kind, mode] : series)
            cells.push_back({[kind, mode] {
                                 return makeFetchPredictor(
                                     kind, 512 * 1024, mode);
                             },
                             kindName(kind),
                             delayModeName(mode) + depth_tag,
                             512 * 1024,
                             cfg});
    }
    suiteTimingReportEnsemble(suite, cells, ctx.report(),
                              ctx.metricsIfEnabled(), ctx.tracer(),
                              ctx.pool(), ctx.timingMemo());

    ctx.printf("%-12s %18s %18s %16s %12s\n", "front-end",
               "perceptron ideal", "perceptron overr.",
               "gshare.fast", "overr. loss");

    std::size_t cell = 0;
    for (const unsigned depth : depths) {
        const double ideal = cells[cell++].harmonicMeanIpc;
        const double over = cells[cell++].harmonicMeanIpc;
        const double fast = cells[cell++].harmonicMeanIpc;
        ctx.printf("%-12u %18.3f %18.3f %16.3f %11.1f%%\n", depth,
                   ideal, over, fast, 100.0 * (ideal - over) / ideal);
    }

    ctx.printf("\n(overr. loss = IPC the perceptron loses to "
               "overriding bubbles at that depth)\n");
    return 0;
}

} // namespace

const ArtifactDef &
studyPipelineDepthArtifact()
{
    static const ArtifactDef def = {
        {"study_pipeline_depth",
         "Depth study: 512KB predictors vs front-end depth", 600000,
         false, ""},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::studyPipelineDepthArtifact(),
                               argc, argv);
}
#endif

/**
 * @file
 * E9 / Section 3.2: the "update the table slowly" policy. The paper
 * reports that letting 64 branches pass between a prediction and its
 * PHT update moves the 256KB-budget mean misprediction from 4.03% to
 * 4.07%, with under 1% IPC cost — i.e. slow non-speculative update
 * is essentially free, which is what makes the pipelined PHT
 * practical.
 *
 * This bench sweeps the update-delay depth at the 256KB budget and
 * reports mean misprediction and harmonic-mean IPC per depth.
 */

#include <memory>
#include <string>

#include "artifact_registry.hh"
#include "common/bitutil.hh"
#include "predictors/gshare_fast.hh"

namespace bpsim {

namespace {

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Section 3.2 ablation",
                "gshare.fast (256KB) accuracy/IPC vs PHT update delay",
                ops);
    const SuiteTraces suite = ctx.suite(ops);
    CoreConfig cfg;

    const std::size_t budget = 256 * 1024;
    const std::size_t entries = budget * 4;
    const unsigned row_lag = 6; // ~the 256KB access latency - 1

    // Accuracy cells first, then timing cells. The accuracy list
    // batches the whole delay sweep into one trace pass per workload
    // (every delay point is the same gshare.fast family).
    const unsigned delays[] = {0u, 4u, 16u, 64u, 256u, 1024u};
    std::vector<AccuracyCellConfig> accCells;
    std::vector<TimingCellConfig> timCells;
    for (const unsigned delay : delays) {
        const std::string name =
            "gshare.fast(upd=" + std::to_string(delay) + ")";
        auto make = [entries, row_lag, delay] {
            return std::make_unique<GshareFastPredictor>(
                entries, row_lag, delay);
        };
        accCells.push_back({make, name, budget});
        timCells.push_back(
            {[make] {
                 return std::make_unique<FetchPredictor>(
                     DelayMode::Ideal, make());
             },
             name, delayModeName(DelayMode::Ideal), budget, cfg});
    }
    suiteAccuracyReportEnsemble(suite, accCells, ctx.report(),
                                ctx.metricsIfEnabled(), ctx.pool());
    suiteTimingReportEnsemble(suite, timCells, ctx.report(),
                              ctx.metricsIfEnabled(), ctx.tracer(),
                              ctx.pool(), ctx.timingMemo());

    ctx.printf("%-12s %-18s %-18s\n", "updateDelay", "mean misp (%)",
               "harmonic IPC");
    for (std::size_t d = 0; d < std::size(delays); ++d)
        ctx.printf("%-12u %-18.3f %-18.3f\n", delays[d],
                   accCells[d].meanPercent,
                   timCells[d].harmonicMeanIpc);

    ctx.printf("\nPaper reference: delay 64 moves 4.03%% -> 4.07%% "
               "misprediction, <1%% IPC loss.\n");
    return 0;
}

} // namespace

const ArtifactDef &
ablationUpdateDelayArtifact()
{
    static const ArtifactDef def = {
        {"ablation_update_delay",
         "Section 3.2 ablation: accuracy/IPC vs PHT update delay",
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
    return bpsim::artifactMain(bpsim::ablationUpdateDelayArtifact(),
                               argc, argv);
}
#endif

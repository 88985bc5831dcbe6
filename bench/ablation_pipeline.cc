/**
 * @file
 * E11/E12 / Sections 3.1 and 3.3.1: the pipelined implementation
 * itself.
 *
 *  - Fidelity: the cycle-level engine must produce the identical
 *    prediction stream to the functional model (here checked over
 *    every workload at several PHT latencies, counting divergences).
 *  - Buffer sizing: the B * 2^L PHT-buffer requirement, tabulated.
 *  - Staleness sensitivity: accuracy of gshare.fast as the row-fetch
 *    staleness grows (the paper claims stale history costs little —
 *    this quantifies it on our suite).
 */

#include <string>
#include <vector>

#include "artifact_registry.hh"
#include "pipeline/gshare_fast_engine.hh"
#include "predictors/gshare_fast.hh"

namespace bpsim {

namespace {

/** Drive engine and functional model in lockstep over a trace;
 *  returns (branches, divergences, engine mispredicts). */
struct Fidelity
{
    Counter branches = 0;
    Counter divergences = 0;
    Counter mispredicts = 0;
};

Fidelity
checkFidelity(const TraceBuffer &trace, std::size_t entries,
              unsigned latency)
{
    GshareFastEngine::Config c;
    c.entries = entries;
    c.phtLatency = latency;
    GshareFastEngine engine(c);
    GshareFastPredictor model(entries, latency - 1, 0);

    Fidelity f;
    for (const MicroOp &op : trace) {
        if (op.cls != InstClass::CondBranch)
            continue;
        ++f.branches;
        const bool ep = engine.predictBranch(op.pc);
        const bool mp = model.predict(op.pc);
        if (ep != mp)
            ++f.divergences;
        model.update(op.pc, op.taken);
        if (!engine.resolve(op.taken)) {
            ++f.mispredicts;
            engine.recover();
        }
    }
    return f;
}

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Pipeline ablation (Sections 3.1/3.3.1)",
                "engine fidelity, buffer sizing, staleness cost", ops);
    SuiteTraces suite(ops, 42, ctx.pool(), /*shared_pool=*/true);

    // --- E12 fidelity ------------------------------------------------
    // Per-workload cells run on the pool; totals accumulate in
    // commit (workload) order, so the table is the same as a serial
    // loop's.
    ctx.printf("\nEngine vs functional model (must diverge 0 times):\n");
    ctx.printf("%-10s %-14s %-12s %-12s\n", "latency", "branches",
               "divergences", "misp (%)");
    for (unsigned latency : {1u, 3u, 7u, 11u}) {
        std::vector<Fidelity> cells(suite.size());
        Fidelity total;
        ctx.pool()->run(
            suite.size(),
            [&](std::size_t i) {
                cells[i] =
                    checkFidelity(suite.trace(i), 1 << 18, latency);
            },
            [&](std::size_t i) {
                total.branches += cells[i].branches;
                total.divergences += cells[i].divergences;
                total.mispredicts += cells[i].mispredicts;
            });
        ctx.printf("%-10u %-14llu %-12llu %-12.2f\n", latency,
                   static_cast<unsigned long long>(total.branches),
                   static_cast<unsigned long long>(total.divergences),
                   100.0 * static_cast<double>(total.mispredicts) /
                       static_cast<double>(total.branches));
    }

    // --- E11 buffer sizing -------------------------------------------
    ctx.printf("\nPHT buffer entries required (B x 2^L, Section 3.3.1):\n");
    ctx.printf("%-22s", "branches/cycle");
    for (unsigned latency : {1u, 2u, 3u, 5u, 8u})
        ctx.printf("  L=%-6u", latency);
    ctx.printf("\n");
    for (unsigned b : {1u, 2u, 4u, 8u, 16u}) {
        ctx.printf("%-22u", b);
        for (unsigned latency : {1u, 2u, 3u, 5u, 8u}) {
            GshareFastEngine::Config c;
            c.entries = 1 << 16;
            c.phtLatency = latency;
            c.branchesPerCycle = b;
            ctx.printf("  %-8zu", GshareFastEngine(c).bufferEntries());
        }
        ctx.printf("\n");
    }

    // --- E11b: bundled (multi-branch) prediction accuracy -------------
    // Section 3.3.1: with B predictions per cycle the select uses
    // speculative history that can be a whole fetch block stale; the
    // EV8 experience (and the claim here) is that this costs little.
    ctx.printf("\nEngine mean misprediction vs branches/cycle "
               "(64KB, latency 3):\n%-16s %-12s\n", "branches/cycle",
               "misp (%)");
    for (unsigned b : {1u, 2u, 4u, 8u}) {
        struct Cell
        {
            Counter branches = 0;
            Counter wrong = 0;
        };
        std::vector<Cell> cells(suite.size());
        Counter branches = 0, wrong = 0;
        ctx.pool()->run(
            suite.size(),
            [&](std::size_t i) {
                GshareFastEngine::Config c;
                c.entries = 1 << 18;
                c.phtLatency = 3;
                c.branchesPerCycle = b;
                GshareFastEngine engine(c);
                for (const MicroOp &op : suite.trace(i)) {
                    if (op.cls != InstClass::CondBranch)
                        continue;
                    ++cells[i].branches;
                    engine.predictBranch(op.pc);
                    if (!engine.resolve(op.taken)) {
                        ++cells[i].wrong;
                        engine.recover();
                    }
                }
            },
            [&](std::size_t i) {
                branches += cells[i].branches;
                wrong += cells[i].wrong;
            });
        ctx.printf("%-16u %-12.2f\n", b,
                   100.0 * static_cast<double>(wrong) /
                       static_cast<double>(branches));
    }

    // --- staleness sensitivity ----------------------------------------
    ctx.printf("\ngshare.fast (64KB) mean misprediction vs row "
               "staleness:\n%-12s %-12s\n", "staleness", "misp (%)");
    const unsigned lags[] = {0u, 1u, 3u, 6u, 10u};
    std::vector<AccuracyCellConfig> lagCells;
    for (unsigned lag : lags)
        lagCells.push_back(
            {[lag] {
                 return std::make_unique<GshareFastPredictor>(
                     std::size_t{1} << 18, lag, 0);
             },
             "gshare.fast(lag=" + std::to_string(lag) + ")",
             64 * 1024});
    suiteAccuracyReportEnsemble(suite, lagCells, ctx.report(),
                                ctx.metricsIfEnabled(), ctx.pool());
    for (std::size_t i = 0; i < lagCells.size(); ++i)
        ctx.printf("%-12u %-12.2f\n", lags[i], lagCells[i].meanPercent);
    ctx.printf("\nPaper reference: stale fetch history has "
               "\"minimal impact\" (Section 3.3.1).\n");
    return 0;
}

} // namespace

const ArtifactDef &
ablationPipelineArtifact()
{
    static const ArtifactDef def = {
        {"ablation_pipeline",
         "Sections 3.1/3.3.1: engine fidelity, buffers, staleness",
         400000, false, ""},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::ablationPipelineArtifact(),
                               argc, argv);
}
#endif

/**
 * @file
 * Context-switch study. Evers' multi-component hybrid — one of the
 * paper's two "most accurate" predictors — originally came out of
 * research on prediction in the presence of context switches
 * (Evers/Chang/Patt, ISCA-23): multi-scheme predictors re-warm
 * faster because some component recovers quickly. This bench
 * interleaves two workloads in fixed quanta (simulating kernel
 * scheduling) and reports how much each predictor loses relative to
 * running the workloads back to back.
 */

#include <memory>
#include <string>
#include <vector>

#include "artifact_registry.hh"

namespace bpsim {

namespace {

/** Interleave two traces in quanta of @p quantum instructions. */
TraceBuffer
interleave(const TraceBuffer &a, const TraceBuffer &b,
           std::size_t quantum)
{
    TraceBuffer out;
    out.reserve(a.size() + b.size());
    std::size_t ia = 0, ib = 0;
    while (ia < a.size() || ib < b.size()) {
        for (std::size_t k = 0; k < quantum && ia < a.size(); ++k)
            out.push(a[ia++]);
        for (std::size_t k = 0; k < quantum && ib < b.size(); ++k)
            out.push(b[ib++]);
    }
    return out;
}

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    ctx.printf("==============================================================\n");
    ctx.printf("Context-switch study — interleaved gcc+crafty at 64KB\n");
    ctx.printf("(the workload regime Evers' multi-component design "
               "targets)\n");
    ctx.printf("==============================================================\n");

    // The base traces come from the artifact's suite: in a sweep,
    // prefixes of the traces every other artifact replays.
    const SuiteTraces suite = ctx.suite(ops);
    const auto pick = [&](const std::string &name) -> const TraceBuffer & {
        std::size_t i = 0;
        while (suite.name(i) != name)
            ++i;
        return suite.trace(i);
    };
    const TraceBuffer &ta = pick("176.gcc");
    const TraceBuffer &tb = pick("186.crafty");
    const TraceBuffer back_to_back = interleave(ta, tb, ta.size());
    suite.describe(ctx.report());

    const std::vector<std::size_t> quanta = {100000, 20000, 4000};
    // Interleavings are deterministic; build each once up front
    // instead of once per predictor kind.
    std::vector<TraceBuffer> mixed;
    for (std::size_t q : quanta)
        mixed.push_back(interleave(ta, tb, q));

    const std::vector<PredictorKind> kinds = {
        PredictorKind::Gshare,
        PredictorKind::Gskew,
        PredictorKind::Perceptron,
        PredictorKind::MultiComponent,
        PredictorKind::GshareFast,
    };

    ctx.printf("%-16s %16s", "quantum (insts)", "back-to-back");
    for (std::size_t q : quanta)
        ctx.printf("%16zu", q);
    ctx.printf("\n");

    // One cell per (kind, schedule): replay on the pool, commit rows
    // and table text in schedule order per kind.
    struct Schedule
    {
        std::string workload;
        const TraceBuffer *trace;
    };
    std::vector<Schedule> schedules = {
        {"gcc+crafty@back-to-back", &back_to_back}};
    for (std::size_t qi = 0; qi < quanta.size(); ++qi)
        schedules.push_back(
            {"gcc+crafty@q=" + std::to_string(quanta[qi]),
             &mixed[qi]});

    for (auto kind : kinds) {
        std::vector<AccuracyResult> results(schedules.size());
        ctx.pool()->run(
            schedules.size(),
            [&](std::size_t i) {
                auto p = makePredictor(kind, 64 * 1024);
                results[i] =
                    runAccuracy(*p, *schedules[i].trace);
            },
            [&](std::size_t i) {
                if (ctx.wantReport())
                    ctx.report().rows.push_back(
                        reportRow(schedules[i].workload,
                                  kindName(kind), 64 * 1024,
                                  results[i]));
                if (i == 0)
                    ctx.printf("%-16s %16.2f",
                               kindName(kind).c_str(),
                               results[i].percent());
                else
                    ctx.printf("%16.2f", results[i].percent());
            });
        ctx.printf("\n");
    }

    ctx.printf("\n(mean misprediction %%; smaller quanta = more "
               "frequent context switches)\n");
    return 0;
}

} // namespace

const ArtifactDef &
studyContextSwitchArtifact()
{
    static const ArtifactDef def = {
        {"study_context_switch",
         "Context-switch study: interleaved gcc+crafty at 64KB",
         400000},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::studyContextSwitchArtifact(),
                               argc, argv);
}
#endif

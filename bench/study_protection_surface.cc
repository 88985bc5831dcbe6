/**
 * @file
 * Protection surface study: misprediction vs budget × upset rate ×
 * protection policy, plus the taxes protection charges.
 *
 * Extends study_soft_error along the axes the paper's thesis makes
 * interesting: does a big unprotected table degrade more gracefully
 * than a protected small one? Each policy (none / parity-invalidate /
 * SEC-DED / scrubbing) is charged honestly — its check bits shrink
 * the effective table inside the nominal budget (factory) and its
 * check logic lands on the read path (delay model) — so the accuracy
 * surface and the timing slice move for real, not by assumption.
 *
 * The accuracy surface sweeps gshare over three budgets, four upset
 * rates and all four policies; a timing slice runs the overriding
 * configuration at 64KB so the delay tax is visible in IPC even at
 * rate zero. Per-policy tax gauges (robust.protection.*) feed the
 * `bpstat summary` resilience view, and `bpstat check
 * --monotone-upsets` gates that misprediction never improves as the
 * upset rate climbs in any (budget, policy) slice.
 *
 * One cell per (configuration, workload), run through the suite
 * entry points like every other artifact: a cell that throws fails
 * the study, so no surface is ever built from a partial sweep.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "artifact_registry.hh"
#include "common/stats.hh"
#include "robust/protection.hh"

namespace bpsim {

namespace {

/** "0", "1e-06", ... — stable across platforms for row keys. */
std::string
rateLabel(double rate)
{
    if (rate == 0.0)
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", rate);
    return buf;
}

/** Row label with rate and policy folded in, so every (workload,
 *  predictor) key stays unique: "gshare@u=1e-04@p=secded". The
 *  monotone-upsets gate in bpstat parses this shape. */
std::string
cellLabel(PredictorKind kind, double rate,
          robust::ProtectionPolicy policy)
{
    return kindName(kind) + "@u=" + rateLabel(rate) +
           "@p=" + robust::protectionPolicyName(policy);
}

/** Per-cell fault seed: same campaign => same flip sequence, but no
 *  two cells share one. */
std::uint64_t
cellSeed(std::size_t budget_i, std::size_t rate_i,
         std::size_t policy_i, std::size_t wl_i)
{
    return 0x5eedfa17 +
           ((budget_i * 29 + rate_i) * 31 + policy_i) * 997 + wl_i;
}

robust::ProtectionConfig
configFor(robust::ProtectionPolicy policy)
{
    robust::ProtectionConfig cfg;
    cfg.policy = policy;
    cfg.wordBits = 64;
    cfg.scrubIntervalBranches = 2048;
    return cfg;
}

int
run(const ArtifactSpec &spec, SweepContext &ctx)
{
    const Counter ops = benchOpsPerWorkload(spec.defaultOps);
    benchHeader(ctx, "Protection surface",
                "misprediction vs budget x upset rate x ECC policy",
                ops);
    const SuiteTraces suite = ctx.suite(ops);
    suite.describe(ctx.report());
    CoreConfig cfg;

    const PredictorKind kind = PredictorKind::Gshare;
    const std::vector<std::size_t> budgets = {
        16 * 1024, 64 * 1024, 256 * 1024};
    const std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3};
    const std::vector<robust::ProtectionPolicy> &policies =
        robust::allProtectionPolicies();
    const std::size_t timing_budget = 64 * 1024;
    const std::vector<double> timing_rates = {0.0, 1e-3};

    // The injector fires every 256 updates; scrubbing sweeps every
    // 2048, so eight injection events ride inside one scrub window.
    std::vector<AccuracyCellConfig> acc;
    for (std::size_t bi = 0; bi < budgets.size(); ++bi) {
        for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            for (std::size_t pi = 0; pi < policies.size(); ++pi) {
                const std::size_t budget = budgets[bi];
                const double rate = rates[ri];
                const robust::ProtectionPolicy policy = policies[pi];
                AccuracyCellConfig c;
                c.makeForWorkload = [kind, rate, policy, budget, bi,
                                     ri, pi](std::size_t wi) {
                    robust::FaultPlan plan;
                    plan.upsetRatePerBit = rate;
                    plan.intervalBranches = 256;
                    plan.seed = cellSeed(bi, ri, pi, wi);
                    return std::unique_ptr<DirectionPredictor>(
                        makeProtectedPredictor(kind, budget,
                                               configFor(policy),
                                               plan));
                };
                c.name = cellLabel(kind, rate, policy);
                c.budgetBytes = budget;
                acc.push_back(std::move(c));
            }
        }
    }
    std::vector<TimingCellConfig> tim;
    for (std::size_t ri = 0; ri < timing_rates.size(); ++ri) {
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
            const double rate = timing_rates[ri];
            const robust::ProtectionPolicy policy = policies[pi];
            TimingCellConfig c;
            c.makeForWorkload = [kind, rate, policy, timing_budget,
                                 ri, pi](std::size_t wi) {
                robust::FaultPlan plan;
                plan.upsetRatePerBit = rate;
                plan.intervalBranches = 256;
                plan.seed = cellSeed(77, ri, pi, wi);
                return std::unique_ptr<FetchPredictor>(
                    makeProtectedFetchPredictor(
                        kind, timing_budget, DelayMode::Overriding,
                        configFor(policy), plan));
            };
            c.name = cellLabel(kind, rate, policy);
            c.mode = delayModeName(DelayMode::Overriding);
            c.budgetBytes = timing_budget;
            c.cfg = cfg;
            tim.push_back(std::move(c));
        }
    }
    suiteAccuracyReportEnsemble(suite, acc, ctx.report(),
                                ctx.metricsIfEnabled(), ctx.pool());
    suiteTimingReportEnsemble(suite, tim, ctx.report(),
                              ctx.metricsIfEnabled(), nullptr,
                              ctx.pool(), ctx.timingMemo());

    // Reduce report rows back to the surface tables. Keys:
    // (label, budget) for accuracy, label for the timing slice.
    std::map<std::pair<std::string, std::size_t>,
             std::vector<double>>
        misp;
    std::map<std::string, std::vector<double>> ipcs;
    for (const auto &row : ctx.report().rows) {
        if (row.hasTiming)
            ipcs[row.predictor].push_back(row.ipc());
        else
            misp[{row.predictor, row.budgetBytes}].push_back(
                row.mispredictPercent());
    }

    for (robust::ProtectionPolicy policy : policies) {
        ctx.printf("\n%s: mean misprediction (%%), budget x upset "
                   "rate\n",
                   robust::protectionPolicyName(policy).c_str());
        ctx.printf("%-10s", "rate");
        for (std::size_t budget : budgets)
            ctx.printf("%12zuKB", budget / 1024);
        ctx.printf("\n");
        for (double rate : rates) {
            ctx.printf("%-10s", rateLabel(rate).c_str());
            for (std::size_t budget : budgets)
                ctx.printf("%14.3f",
                           arithmeticMean(misp.at(
                               {cellLabel(kind, rate, policy),
                                budget})));
            ctx.printf("\n");
        }
    }

    // The taxes, charged at the timing budget: what each policy
    // costs in effective table size and read latency.
    ctx.printf("\nprotection taxes at %zuKB (gshare, overriding)\n",
               timing_budget / 1024);
    ctx.printf("%-8s %10s %12s %10s %10s\n", "policy", "eff-kB",
               "storage-%", "lat-cyc", "tax-cyc");
    const unsigned base_latency =
        predictorLatencyCycles(kind, timing_budget);
    for (robust::ProtectionPolicy policy : policies) {
        const robust::ProtectionConfig pc = configFor(policy);
        const unsigned lat = protectedPredictorLatencyCycles(
            kind, timing_budget, pc);
        ctx.printf(
            "%-8s %10.1f %12.2f %10u %10d\n",
            robust::protectionPolicyName(policy).c_str(),
            static_cast<double>(
                robust::protectedEffectiveBudget(timing_budget, pc)) /
                1024.0,
            100.0 * robust::protectionStorageOverhead(pc), lat,
            static_cast<int>(lat) - static_cast<int>(base_latency));
    }

    ctx.printf("\nharmonic-mean IPC at %zuKB, policy x upset rate\n",
               timing_budget / 1024);
    ctx.printf("%-8s", "policy");
    for (double rate : timing_rates)
        ctx.printf("%14s", rateLabel(rate).c_str());
    ctx.printf("\n");
    for (robust::ProtectionPolicy policy : policies) {
        ctx.printf("%-8s",
                   robust::protectionPolicyName(policy).c_str());
        for (double rate : timing_rates)
            ctx.printf("%14.3f", harmonicMean(ipcs.at(
                                     cellLabel(kind, rate, policy))));
        ctx.printf("\n");
    }

    // Publish the per-policy taxes for `bpstat summary`.
    if (obs::MetricRegistry *m = ctx.metricsIfEnabled()) {
        for (robust::ProtectionPolicy policy : policies) {
            const robust::ProtectionConfig pc = configFor(policy);
            const std::string name =
                robust::protectionPolicyName(policy);
            m->gauge(obs::labeledName(
                         "robust.protection.storage_tax_pct",
                         "policy", name))
                .set(100.0 * robust::protectionStorageOverhead(pc));
            m->gauge(obs::labeledName(
                         "robust.protection.delay_tax_cycles",
                         "policy", name))
                .set(static_cast<double>(
                         protectedPredictorLatencyCycles(
                             kind, timing_budget, pc)) -
                     static_cast<double>(base_latency));
            m->gauge(obs::labeledName(
                         "robust.protection.check_bits_per_word",
                         "policy", name))
                .set(static_cast<double>(
                    robust::protectionCheckBits(pc)));
        }
    }

    return 0;
}

} // namespace

const ArtifactDef &
studyProtectionSurfaceArtifact()
{
    static const ArtifactDef def = {
        {"study_protection_surface",
         "Protection surface: misprediction vs budget x upset rate "
         "x ECC policy, with storage/delay taxes",
         250000},
        run,
    };
    return def;
}

} // namespace bpsim

#ifndef BPSIM_ARTIFACT_LIB
int
main(int argc, char **argv)
{
    return bpsim::artifactMain(bpsim::studyProtectionSurfaceArtifact(),
                               argc, argv);
}
#endif

/** @file Cross-workload character tests: the properties that make
 *  each SPECint stand-in play its namesake's role in the paper's
 *  evaluation (memory-boundedness, branch hardness orderings,
 *  compute intensity). These lock in the workload tuning. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/factory.hh"
#include <set>
#include "core/runner.hh"
#include "workloads/registry.hh"

namespace bpsim {
namespace {

class CharacterTest : public ::testing::Test
{
  protected:
    static const SuiteTraces &
    suite()
    {
        static SuiteTraces s(150000, 42);
        return s;
    }

    static const std::map<std::string, AccuracyResult> &
    gshareAccuracy()
    {
        static const std::map<std::string, AccuracyResult> acc = [] {
            std::map<std::string, AccuracyResult> m;
            std::vector<AccuracyCellConfig> cells = {
                {[] {
                     return makePredictor(PredictorKind::Gshare,
                                          64 * 1024);
                 },
                 "gshare", 64 * 1024}};
            obs::RunReport report;
            suiteAccuracyReportEnsemble(suite(), cells, report);
            for (std::size_t i = 0; i < suite().size(); ++i)
                m[suite().name(i)] = cells[0].results[i];
            return m;
        }();
        return acc;
    }

    static const std::map<std::string, SimResult> &
    timing()
    {
        static const std::map<std::string, SimResult> t = [] {
            std::map<std::string, SimResult> m;
            std::vector<TimingCellConfig> cells = {
                {[] {
                     return makeFetchPredictor(PredictorKind::GshareFast,
                                               64 * 1024,
                                               DelayMode::Pipelined);
                 },
                 "gshare.fast", "pipelined", 64 * 1024, CoreConfig{}}};
            obs::RunReport report;
            suiteTimingReportEnsemble(suite(), cells, report);
            for (std::size_t i = 0; i < suite().size(); ++i)
                m[suite().name(i)] = cells[0].results[i];
            return m;
        }();
        return t;
    }
};

TEST_F(CharacterTest, TwolfIsAmongTheHardestBranchWorkloads)
{
    // The paper singles out 300.twolf as the benchmark where
    // overriding disagreement peaks; its branches must be near the
    // top of the difficulty ranking.
    const auto &acc = gshareAccuracy();
    const double twolf = acc.at("300.twolf").percent();
    int harder = 0;
    for (const auto &[name, r] : acc)
        if (r.percent() > twolf)
            ++harder;
    EXPECT_LE(harder, 2) << "at most two workloads harder than twolf";
}

TEST_F(CharacterTest, GapAndVortexAreEasy)
{
    const auto &acc = gshareAccuracy();
    EXPECT_LT(acc.at("254.gap").percent(), 5.0);
    EXPECT_LT(acc.at("255.vortex").percent(), 9.0);
    // And both easier than the mean of the suite.
    double mean = 0;
    for (const auto &[name, r] : acc)
        mean += r.percent();
    mean /= static_cast<double>(acc.size());
    EXPECT_LT(acc.at("254.gap").percent(), mean);
    EXPECT_LT(acc.at("255.vortex").percent(), mean);
}

TEST_F(CharacterTest, McfIsTheMemoryBoundOutlier)
{
    const auto &t = timing();
    const double mcf_miss = t.at("181.mcf").l1dMissRate;
    for (const auto &[name, r] : t) {
        if (name == "181.mcf")
            continue;
        EXPECT_GE(mcf_miss, r.l1dMissRate)
            << name << " should not out-miss mcf";
    }
    // And mcf has the lowest IPC of the suite.
    const double mcf_ipc = t.at("181.mcf").ipc();
    for (const auto &[name, r] : t) {
        if (name == "181.mcf")
            continue;
        EXPECT_LE(mcf_ipc, r.ipc()) << name;
    }
}

TEST_F(CharacterTest, GapHasTheHighestIpc)
{
    const auto &t = timing();
    const double gap = t.at("254.gap").ipc();
    int faster = 0;
    for (const auto &[name, r] : t)
        if (r.ipc() > gap)
            ++faster;
    EXPECT_LE(faster, 1);
}

TEST_F(CharacterTest, EonHasTheLowestBranchDensity)
{
    double eon = 0, others_min = 1.0;
    for (std::size_t i = 0; i < suite().size(); ++i) {
        const double d = suite().trace(i).branchDensity();
        if (suite().name(i) == "252.eon")
            eon = d;
        else
            others_min = std::min(others_min, d);
    }
    EXPECT_LE(eon, others_min + 0.02)
        << "eon is the compute-heavy outlier";
}

TEST_F(CharacterTest, GccHasTheLargestStaticFootprint)
{
    std::map<std::string, std::size_t> sites;
    for (std::size_t i = 0; i < suite().size(); ++i) {
        std::set<Addr> s;
        for (const auto &op : suite().trace(i))
            if (op.cls == InstClass::CondBranch)
                s.insert(op.pc);
        sites[suite().name(i)] = s.size();
    }
    for (const auto &[name, n] : sites) {
        if (name == "176.gcc")
            continue;
        EXPECT_GE(sites.at("176.gcc"), n) << name;
    }
    EXPECT_GE(sites.at("176.gcc"), 80u);
}

TEST_F(CharacterTest, SuiteSpansAnIpcRange)
{
    // The paper's Figure 8 spans roughly 3x between the slowest and
    // fastest benchmark; a suite without dynamic range can't show
    // per-benchmark effects.
    const auto &t = timing();
    double lo = 1e9, hi = 0;
    for (const auto &[name, r] : t) {
        lo = std::min(lo, r.ipc());
        hi = std::max(hi, r.ipc());
    }
    EXPECT_GT(hi / lo, 2.0);
}

} // namespace
} // namespace bpsim

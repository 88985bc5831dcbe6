/** @file Suite-level tests for the twelve SPECint stand-in kernels. */

#include "workloads/registry.hh"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace bpsim {
namespace {

TEST(Registry, AllTwelveBenchmarksExist)
{
    EXPECT_EQ(specint2000Names().size(), 12u);
    for (const auto &name : specint2000Names()) {
        const auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        EXPECT_EQ(w->name(), name);
        EXPECT_FALSE(w->description().empty());
    }
    EXPECT_EQ(makeWorkload("999.nonesuch"), nullptr);
}

TEST(Registry, MakeSuiteMatchesNameOrder)
{
    const auto suite = makeSpecint2000();
    ASSERT_EQ(suite.size(), 12u);
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i]->name(), specint2000Names()[i]);
}

/** Per-kernel property sweep. */
class KernelTest : public ::testing::TestWithParam<std::string>
{
  protected:
    TraceBuffer
    gen(Counter ops = 60000, std::uint64_t seed = 42)
    {
        const auto w = makeWorkload(GetParam());
        return generateTrace(*w, ops, seed);
    }
};

TEST_P(KernelTest, ProducesExactlyRequestedOps)
{
    const auto t = gen(60000);
    EXPECT_EQ(t.size(), 60000u);
}

TEST_P(KernelTest, DeterministicForSameSeed)
{
    const auto a = gen(30000, 7);
    const auto b = gen(30000, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc) << "op " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "op " << i;
        ASSERT_EQ(a[i].extra, b[i].extra) << "op " << i;
    }
}

TEST_P(KernelTest, ShortTraceIsPrefixOfLongTrace)
{
    // A kernel's op stream does not depend on the op budget: the
    // budget only decides where the tracer stops it. So a short
    // trace is the exact prefix of a longer one at the same seed.
    const Counter lengths[] = {1000, 20000, 60000};
    for (std::uint64_t seed : {1ull, 42ull, 6007ull}) {
        std::vector<TraceBuffer> traces;
        for (Counter ops : lengths)
            traces.push_back(gen(ops, seed));
        for (std::size_t s = 0; s < traces.size(); ++s) {
            for (std::size_t l = s + 1; l < traces.size(); ++l) {
                const TraceBuffer &shorter = traces[s];
                const TraceBuffer &longer = traces[l];
                const std::string where =
                    "seed " + std::to_string(seed) + ", " +
                    std::to_string(lengths[s]) + " vs " +
                    std::to_string(lengths[l]) + " ops";
                ASSERT_EQ(shorter.size(), lengths[s]) << where;
                for (std::size_t i = 0; i < shorter.size(); ++i) {
                    const MicroOp &a = shorter[i];
                    const MicroOp &b = longer[i];
                    ASSERT_EQ(a.pc, b.pc) << where << ", op " << i;
                    ASSERT_EQ(a.extra, b.extra) << where << ", op " << i;
                    ASSERT_EQ(a.cls, b.cls) << where << ", op " << i;
                    ASSERT_EQ(a.taken, b.taken) << where << ", op " << i;
                    ASSERT_EQ(a.dst, b.dst) << where << ", op " << i;
                    ASSERT_EQ(a.srcA, b.srcA) << where << ", op " << i;
                    ASSERT_EQ(a.srcB, b.srcB) << where << ", op " << i;
                }
                const BranchSpan sv = shorter.branchView();
                const BranchSpan lv = longer.branchView();
                ASSERT_EQ(sv.size(), shorter.condBranches()) << where;
                ASSERT_LE(sv.size(), lv.size()) << where;
                for (std::size_t i = 0; i < sv.size(); ++i) {
                    ASSERT_EQ(sv.pcData()[i], lv.pcData()[i])
                        << where << ", branch " << i;
                    ASSERT_EQ(sv.takenData()[i], lv.takenData()[i])
                        << where << ", branch " << i;
                }
            }
        }
    }
}

TEST_P(KernelTest, DifferentSeedsDiffer)
{
    const auto a = gen(30000, 1);
    const auto b = gen(30000, 2);
    std::size_t same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += (a[i].pc == b[i].pc && a[i].taken == b[i].taken) ? 1 : 0;
    EXPECT_LT(same, a.size()) << "seed must influence the trace";
}

TEST_P(KernelTest, BranchDensityIsRealistic)
{
    const auto t = gen();
    // SPECint conditional-branch density is roughly one in four to
    // one in eight instructions.
    EXPECT_GT(t.branchDensity(), 0.08) << GetParam();
    EXPECT_LT(t.branchDensity(), 0.45) << GetParam();
}

TEST_P(KernelTest, OutcomesAreMixedButBiasedSanely)
{
    const auto t = gen();
    Counter taken = 0;
    for (const auto &op : t)
        if (op.cls == InstClass::CondBranch)
            taken += op.taken ? 1 : 0;
    const double frac =
        static_cast<double>(taken) / static_cast<double>(t.condBranches());
    EXPECT_GT(frac, 0.15) << GetParam();
    EXPECT_LT(frac, 0.97) << GetParam();
}

TEST_P(KernelTest, UsesMemoryAndCompute)
{
    const auto t = gen();
    Counter loads = 0, stores = 0, alu = 0;
    for (const auto &op : t) {
        loads += op.cls == InstClass::Load ? 1 : 0;
        stores += op.cls == InstClass::Store ? 1 : 0;
        alu += op.cls == InstClass::IntAlu ? 1 : 0;
    }
    EXPECT_GT(loads, t.size() / 100) << GetParam();
    EXPECT_GT(stores, 0u) << GetParam();
    EXPECT_GT(alu, t.size() / 10) << GetParam();
}

TEST_P(KernelTest, HasSubstantialStaticBranchFootprint)
{
    const auto t = gen();
    std::set<Addr> sites;
    for (const auto &op : t)
        if (op.cls == InstClass::CondBranch)
            sites.insert(op.pc);
    EXPECT_GE(sites.size(), 8u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, KernelTest,
    ::testing::ValuesIn(specint2000Names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

} // namespace
} // namespace bpsim

/** @file Suite-level tests for the twelve SPECint stand-in kernels. */

#include "workloads/registry.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace_io.hh"
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

/** @p got's first @p n ops and first @p branches branch-column
 *  entries equal @p want's. */
void
expectSameStart(const TraceBuffer &want, const TraceBuffer &got,
                std::size_t n, std::size_t branches,
                const std::string &where)
{
    for (std::size_t i = 0; i < n; ++i) {
        const MicroOp &a = want[i];
        const MicroOp &b = got[i];
        ASSERT_EQ(a.pc, b.pc) << where << ", op " << i;
        ASSERT_EQ(a.extra, b.extra) << where << ", op " << i;
        ASSERT_EQ(a.cls, b.cls) << where << ", op " << i;
        ASSERT_EQ(a.taken, b.taken) << where << ", op " << i;
        ASSERT_EQ(a.dst, b.dst) << where << ", op " << i;
        ASSERT_EQ(a.srcA, b.srcA) << where << ", op " << i;
        ASSERT_EQ(a.srcB, b.srcB) << where << ", op " << i;
    }
    const BranchSpan wv = want.branchView();
    const BranchSpan gv = got.branchView();
    for (std::size_t i = 0; i < branches; ++i) {
        ASSERT_EQ(wv.pcData()[i], gv.pcData()[i])
            << where << ", branch " << i;
        ASSERT_EQ(wv.takenData()[i], gv.takenData()[i])
            << where << ", branch " << i;
    }
}

/** @p view is exactly @p want: length, every op, the ops a range-for
 *  visits, branch count and branch columns. */
void
expectSameTrace(const TraceBuffer &want, const TraceBuffer &view,
                const std::string &where)
{
    ASSERT_EQ(view.size(), want.size()) << where;
    ASSERT_EQ(view.condBranches(), want.condBranches()) << where;
    ASSERT_EQ(view.branchView().size(), want.condBranches()) << where;
    std::size_t visited = 0;
    for ([[maybe_unused]] const MicroOp &op : view)
        ++visited;
    ASSERT_EQ(visited, want.size()) << where;
    expectSameStart(want, view, want.size(), want.condBranches(),
                    where);
}

TEST_P(KernelTest, ShortTraceIsPrefixOfLongTrace)
{
    // A kernel's op stream does not depend on the op budget: the
    // budget only decides where the tracer stops it. So a short
    // trace is the exact prefix of a longer one at the same seed,
    // and a prefix view of the longer one (generated, or read back
    // from a v3 file) is the short trace.
    const Counter lengths[] = {1000, 20000, 60000};
    for (std::uint64_t seed : {1ull, 42ull, 6007ull}) {
        std::vector<TraceBuffer> traces;
        for (Counter ops : lengths)
            traces.push_back(gen(ops, seed));
        const std::string path = std::string(::testing::TempDir()) +
                                 "/prefix_" + GetParam() + ".bpt";
        writeTraceV3(traces.back(), path);
        const TraceBuffer loaded = readTrace(path);
        std::remove(path.c_str());

        // Cut at its own length, a loaded trace is still undecoded:
        // full-length suites read from the cache replay branch
        // columns only.
        const TraceBuffer whole = loaded.prefix(loaded.size());
        ASSERT_EQ(whole.size(), loaded.size());
        ASSERT_EQ(whole.condBranches(), loaded.condBranches());
        EXPECT_FALSE(whole.opsMaterialized());

        for (std::size_t s = 0; s < traces.size(); ++s) {
            const TraceBuffer &shorter = traces[s];
            ASSERT_EQ(shorter.size(), lengths[s]);
            const std::string at = "seed " + std::to_string(seed) +
                                   ", " + std::to_string(lengths[s]) +
                                   " ops";
            for (std::size_t l = s + 1; l < traces.size(); ++l) {
                const TraceBuffer &longer = traces[l];
                const std::string where =
                    at + " vs " + std::to_string(lengths[l]);
                ASSERT_LE(shorter.condBranches(), longer.condBranches())
                    << where;
                expectSameStart(shorter, longer, shorter.size(),
                                shorter.condBranches(), where);
                expectSameTrace(shorter, longer.prefix(lengths[s]),
                                where + ", prefix view");
            }
            expectSameTrace(shorter, loaded.prefix(lengths[s]),
                            at + ", loaded prefix view");
        }
        EXPECT_THROW(loaded.prefix(loaded.size() + 1),
                     std::out_of_range);
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

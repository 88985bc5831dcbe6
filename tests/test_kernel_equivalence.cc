/**
 * @file
 * Golden equivalence of the devirtualized replay fast path against
 * the virtual-dispatch loop, for every factory predictor kind at
 * every standard budget: identical branch/misprediction counts,
 * identical describeStats() gauges, and bit-identical visitState()
 * dumps after the run. Also pins the dispatcher's coverage — every
 * factory-built type must take the monomorphized path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dispatch.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "predictors/static_pred.hh"
#include "robust/state_visitor.hh"
#include "trace/trace_buffer.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

/** Flattens every visited field into one comparable dump. */
struct StateDump : robust::StateVisitor
{
    struct Field
    {
        std::string name;
        std::size_t count;
        unsigned bits;
        std::vector<std::uint64_t> values;

        bool
        operator==(const Field &o) const
        {
            return name == o.name && count == o.count &&
                   bits == o.bits && values == o.values;
        }
    };
    std::vector<Field> fields;

    void
    visit(const robust::StateField &f) override
    {
        Field out{f.name, f.count, f.bits, {}};
        out.values.reserve(f.count);
        for (std::size_t i = 0; i < f.count; ++i)
            out.values.push_back(robust::load(f, i));
        fields.push_back(std::move(out));
    }
};

TraceBuffer
suiteTrace()
{
    const auto w = makeWorkload(specint2000Names().front());
    return generateTrace(*w, 40000, 9);
}

TEST(KernelEquivalence, FastAndVirtualPathsAgreeEverywhere)
{
    const TraceBuffer trace = suiteTrace();
    for (const PredictorKind kind : allKinds()) {
        for (const std::size_t budget : standardBudgets()) {
            SCOPED_TRACE(kindName(kind) + "@" +
                         std::to_string(budget));
            auto fast = makePredictor(kind, budget);
            auto slow = makePredictor(kind, budget);
            const AccuracyResult rf = runAccuracy(*fast, trace);
            const AccuracyResult rs =
                runAccuracyVirtual(*slow, trace);
            ASSERT_EQ(rf.branches, rs.branches);
            ASSERT_EQ(rf.mispredictions, rs.mispredictions);

            // Same trained state, bit for bit...
            StateDump df;
            StateDump ds;
            fast->visitState(df);
            slow->visitState(ds);
            ASSERT_EQ(df.fields.size(), ds.fields.size());
            for (std::size_t i = 0; i < df.fields.size(); ++i)
                ASSERT_TRUE(df.fields[i] == ds.fields[i])
                    << "field " << df.fields[i].name;

            // ...and the same derived gauges.
            const auto sf = fast->describeStats();
            const auto ss = slow->describeStats();
            ASSERT_EQ(sf.size(), ss.size());
            for (std::size_t i = 0; i < sf.size(); ++i) {
                ASSERT_EQ(sf[i].name, ss[i].name);
                ASSERT_EQ(sf[i].value, ss[i].value);
            }
        }
    }
}

TEST(KernelEquivalence, DispatcherCoversEveryFactoryKind)
{
    for (const PredictorKind kind : allKinds()) {
        auto pred = makePredictor(kind, 16 * 1024);
        bool entered = false;
        const bool matched =
            withConcretePredictor(*pred, [&](auto &) {
                entered = true;
            });
        EXPECT_TRUE(matched) << kindName(kind);
        EXPECT_TRUE(entered) << kindName(kind);
    }
}

TEST(KernelEquivalence, UnknownTypesFallBackToVirtualLoop)
{
    StaticPredictor fixed(true);
    const bool matched =
        withConcretePredictor(fixed, [](auto &) { FAIL(); });
    EXPECT_FALSE(matched);

    // runAccuracy still works on it via the fallback.
    const TraceBuffer trace = suiteTrace();
    const AccuracyResult r = runAccuracy(fixed, trace);
    const AccuracyResult rv = runAccuracyVirtual(fixed, trace);
    EXPECT_EQ(r.branches, rv.branches);
    EXPECT_EQ(r.mispredictions, rv.mispredictions);
}

} // namespace
} // namespace bpsim

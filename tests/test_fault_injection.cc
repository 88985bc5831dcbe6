/**
 * @file
 * Tests for SRAM fault injection (src/robust): the visitState()
 * coverage invariant, deterministic bit flipping, graceful accuracy
 * degradation, and trace corruption.
 */

#include "robust/fault_injector.hh"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "predictors/static_pred.hh"
#include "robust/trace_fault.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

/** Tallies fields without mutating anything. */
class CountingVisitor : public robust::StateVisitor
{
  public:
    void
    visit(const robust::StateField &field) override
    {
        totalBits_ += field.totalBits();
        ++fields_;
        // Exercise the accessors on the first element so a broken
        // load/store pair fails here, not only under bombardment.
        if (field.count > 0) {
            const std::uint64_t v = robust::load(field, 0);
            robust::store(field, 0, v);
            EXPECT_EQ(robust::load(field, 0), v) << field.name;
        }
    }

    std::size_t totalBits() const { return totalBits_; }
    std::size_t fields() const { return fields_; }

  private:
    std::size_t totalBits_ = 0;
    std::size_t fields_ = 0;
};

TEST(StateVisitor, ExposedBitsMatchStorageBits)
{
    // The fault model must cover exactly the hardware budget the
    // paper charges — no hidden state, no double counting.
    for (PredictorKind kind : allKinds()) {
        auto pred = makePredictor(kind, 64 * 1024);
        CountingVisitor counter;
        pred->visitState(counter);
        EXPECT_EQ(counter.totalBits(), pred->storageBits())
            << kindName(kind);
        EXPECT_GT(counter.fields(), 0u) << kindName(kind);
    }
}

TEST(StateVisitor, FetchWrappersForwardToComponents)
{
    // Every wrapper exposes exactly the predictors its storageBits()
    // counts, so a fault plan can bombard any delay mode.
    const TraceBuffer trace =
        generateTrace(*makeWorkload("176.gcc"), 20000, 3);
    for (auto mode : {DelayMode::Ideal, DelayMode::Overriding,
                      DelayMode::Stall, DelayMode::Pipelined,
                      DelayMode::DualPath, DelayMode::Cascading}) {
        SCOPED_TRACE(delayModeName(mode));
        auto fp = makeFetchPredictor(PredictorKind::Perceptron,
                                     64 * 1024, mode);
        CountingVisitor counter;
        fp->visitState(counter);
        EXPECT_GT(counter.fields(), 0u);
        EXPECT_EQ(counter.totalBits(), fp->storageBits());

        robust::FaultPlan plan;
        plan.upsetRatePerBit = 1e-3;
        plan.intervalBranches = 256;
        plan.seed = 17;
        robust::FaultInjectingFetchPredictor faulty(
            makeFetchPredictor(PredictorKind::Perceptron, 64 * 1024,
                               mode),
            plan);
        EXPECT_NO_THROW(predictColumn(faulty, trace));
        EXPECT_GT(faulty.injector().flips(), 0u);
    }
}

TEST(StateVisitor, WeightFieldSignExtendsRoundTrip)
{
    // The perceptron's storage: 8-bit weights held as int16.
    std::vector<std::int16_t> weights = {-128, -1, 127};
    const robust::StateField f = robust::weightField("w", weights, 8);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const std::int16_t before = weights[i];
        robust::store(f, i, robust::load(f, i));
        EXPECT_EQ(weights[i], before) << "weight " << i;
    }
    // Flipping the sign bit of -1 (0xff) gives 0x7f == +127.
    robust::store(f, 1, robust::load(f, 1) ^ 0x80);
    EXPECT_EQ(weights[1], 127);
}

/**
 * One field of every FieldKind, each element read back through its
 * storage's own API (host()), so a descriptor that addresses the
 * wrong bytes fails even when load() and store() agree with each
 * other. Built with no element equal to @p avoid, so a store or
 * fill that misses an element shows.
 */
struct EveryKind
{
    struct Entry
    {
        std::uint16_t tag = 0;
        TwoBitCounter counter;
        bool valid = false;
    };

    EveryKind(std::uint64_t seed, std::uint64_t avoid)
    {
        Rng rng(seed);
        for (const robust::StateField &f : fields)
            for (std::size_t i = 0; i < f.count; ++i) {
                std::uint64_t v = rng.next() & loMask(f.bits);
                robust::store(f, i, v == (avoid & loMask(f.bits))
                                        ? v ^ 1
                                        : v);
            }
    }
    EveryKind(const EveryKind &) = delete;

    /** Element @p i of field @p f as its storage holds it (weights
     *  sign-extended to 64 bits). */
    std::uint64_t
    host(std::size_t f, std::size_t i) const
    {
        switch (fields[f].kind) {
          case robust::FieldKind::PackedTwoBit:
            return pht.value(i);
          case robust::FieldKind::PackedSat:
            return sat.value(i);
          case robust::FieldKind::SatCounters:
            return counters[i].value();
          case robust::FieldKind::Int16:
            return static_cast<std::uint64_t>(
                std::int64_t{weights[i]});
          case robust::FieldKind::History:
            return history.bit(static_cast<unsigned>(i));
          case robust::FieldKind::Uint8:
            return fields[f].name == "valid" ? entries[i].valid
                                             : entries[i].counter.value();
          case robust::FieldKind::Uint16:
            return entries[i].tag;
          case robust::FieldKind::Uint64:
            return fields[f].name == "word" ? word : words[i];
        }
        return ~std::uint64_t{0};
    }

    /** What host() reads after store(f, i, @p v). */
    std::uint64_t
    expectedHost(std::size_t f, std::uint64_t v) const
    {
        const unsigned bits = fields[f].bits;
        v &= loMask(bits);
        if (fields[f].kind == robust::FieldKind::Int16 &&
            (v >> (bits - 1)) != 0)
            v |= ~loMask(bits);
        return v;
    }

    /** Every element of every field, as its storage holds it. */
    std::vector<std::uint64_t>
    image() const
    {
        std::vector<std::uint64_t> out;
        for (std::size_t f = 0; f < fields.size(); ++f)
            for (std::size_t i = 0; i < fields[f].count; ++i)
                out.push_back(host(f, i));
        return out;
    }

    PackedPhtStorage pht{13};
    PackedSatStorage sat{23, 3}; // element 21 straddles two words
    std::vector<SatCounter> counters =
        std::vector<SatCounter>(9, SatCounter(3));
    std::vector<std::int16_t> weights = std::vector<std::int16_t>(7);
    HistoryRegister history{130};
    std::vector<std::uint64_t> words = std::vector<std::uint64_t>(5);
    std::uint64_t word = 0;
    std::vector<Entry> entries = std::vector<Entry>(11);
    std::vector<robust::StateField> fields = {
        robust::packedCounterField("pht", pht),
        robust::packedSatField("sat", sat),
        robust::satCounterField("counters", counters, 3),
        robust::weightField("weights", weights, 8),
        robust::historyField("history", history),
        robust::wordArrayField("words", words, 12),
        robust::wordField("word", word, 64),
        robust::memberField("tag", entries, &Entry::tag, 11),
        robust::memberField("counter", entries, &Entry::counter, 2),
        robust::memberField("valid", entries, &Entry::valid, 1),
    };
};

TEST(StateFieldKinds, EveryKindRoundTripsEveryPattern)
{
    EveryKind s(1, 0);
    std::size_t offset = 0; // field f's first element in image()
    for (std::size_t f = 0; f < s.fields.size();
         offset += s.fields[f++].count) {
        const robust::StateField &field = s.fields[f];
        SCOPED_TRACE(field.name);
        // Every pattern at the width; the 64-bit word gets its edges.
        std::vector<std::uint64_t> patterns;
        if (field.bits < 64)
            for (std::uint64_t v = 0; v <= loMask(field.bits); ++v)
                patterns.push_back(v);
        else
            patterns = {0, 1, 0x8000000000000000, 0x7fffffffffffffff,
                        ~std::uint64_t{0}, 0x0123456789abcdef};
        for (std::size_t i = 0; i < field.count; ++i)
            for (const std::uint64_t v : patterns) {
                std::vector<std::uint64_t> want = s.image();
                // Bits above the width are dropped.
                robust::store(field, i, v | ~loMask(field.bits));
                ASSERT_EQ(robust::load(field, i), v) << "element " << i;
                want[offset + i] = s.expectedHost(f, v);
                // Only that element changed, in its own field and
                // in the struct members around it.
                ASSERT_EQ(s.image(), want) << "element " << i;
            }
    }
}

TEST(StateFieldKinds, FillEqualsAStoreLoop)
{
    // Unaligned ranges: partial bytes of packed two-bit counters,
    // three-bit counters across bytes and a word boundary, history
    // bits across a 64-bit boundary, and strided struct members.
    const std::pair<std::size_t, std::size_t> ranges[] = {
        {0, 1},   {1, 3},   {3, 9},   {5, 6},    {4, 8},
        {2, 11},  {0, 13},  {19, 23}, {60, 70},  {63, 65},
        {127, 130}};
    EveryKind probe(0, 0);
    for (std::size_t f = 0; f < probe.fields.size(); ++f) {
        const std::size_t count = probe.fields[f].count;
        for (const auto &[first, last] : ranges) {
            if (last > count)
                continue;
            for (const std::uint64_t v :
                 {std::uint64_t{1}, ~std::uint64_t{0}}) {
                SCOPED_TRACE(probe.fields[f].name + " [" +
                             std::to_string(first) + ", " +
                             std::to_string(last) + ") <- " +
                             std::to_string(v));
                EveryKind filled(f, v), looped(f, v);
                const std::vector<std::uint64_t> before = filled.image();
                robust::fill(filled.fields[f], first, last, v);
                for (std::size_t i = first; i < last; ++i)
                    robust::store(looped.fields[f], i, v);
                EXPECT_EQ(filled.image(), looped.image());
                EXPECT_NE(filled.image(), before);
            }
        }
    }
}

TEST(FaultInjector, RateZeroIsTransparent)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 60000, 3);

    auto clean = makePredictor(PredictorKind::Gshare, 64 * 1024);
    const AccuracyResult base = runAccuracy(*clean, trace);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 0.0;
    robust::FaultInjectingPredictor faulty(
        makePredictor(PredictorKind::Gshare, 64 * 1024), plan);
    const AccuracyResult r = runAccuracy(faulty, trace);

    EXPECT_EQ(r.branches, base.branches);
    EXPECT_EQ(r.mispredictions, base.mispredictions);
    EXPECT_EQ(faulty.injector().flips(), 0u);
    EXPECT_GT(faulty.injector().events(), 0u);
}

TEST(FaultInjector, EventsFireEveryIntervalUpdates)
{
    // Both decorators fire on update interval, 2 * interval, ...;
    // interval 0 never fires. Pinned after every update.
    for (const Counter interval : {Counter{0}, Counter{1}, Counter{256}}) {
        robust::FaultPlan plan;
        plan.upsetRatePerBit = 1e-4;
        plan.intervalBranches = interval;
        robust::FaultInjectingPredictor direct(
            makePredictor(PredictorKind::Gshare, 1024), plan);
        robust::FaultInjectingFetchPredictor fetch(
            makeFetchPredictor(PredictorKind::Gshare, 1024,
                               DelayMode::Ideal),
            plan);
        for (Counter u = 1; u <= 1000; ++u) {
            const Addr pc = 0x4000 + 4 * (u % 37);
            direct.update(pc, u % 3 == 0);
            fetch.update(pc, u % 3 == 0);
            const Counter want = interval == 0 ? 0 : u / interval;
            ASSERT_EQ(direct.injector().events(), want)
                << "interval " << interval << ", update " << u;
            ASSERT_EQ(fetch.injector().events(), want)
                << "interval " << interval << ", update " << u;
        }
    }
}

TEST(FaultInjector, SameSeedSameFlipsAndPredictions)
{
    const auto w = makeWorkload("186.crafty");
    const TraceBuffer trace = generateTrace(*w, 60000, 5);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-3;
    plan.intervalBranches = 512;
    plan.seed = 1234;

    AccuracyResult runs[2];
    Counter flips[2];
    for (int i = 0; i < 2; ++i) {
        robust::FaultInjectingPredictor pred(
            makePredictor(PredictorKind::Perceptron, 64 * 1024),
            plan);
        runs[i] = runAccuracy(pred, trace);
        flips[i] = pred.injector().flips();
    }
    EXPECT_EQ(runs[0].mispredictions, runs[1].mispredictions);
    EXPECT_EQ(flips[0], flips[1]);
    EXPECT_GT(flips[0], 0u);
}

TEST(FaultInjector, HighRateDegradesButNeverBreaks)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 60000, 3);

    auto clean = makePredictor(PredictorKind::Gshare, 64 * 1024);
    const AccuracyResult base = runAccuracy(*clean, trace);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2; // thousands of flips per event
    plan.intervalBranches = 512;
    robust::FaultInjectingPredictor faulty(
        makePredictor(PredictorKind::Gshare, 64 * 1024), plan);
    const AccuracyResult r = runAccuracy(faulty, trace);

    // Same branch stream, worse accuracy, no crash: predictor state
    // is architecturally invisible, so bombardment only costs
    // mispredictions.
    EXPECT_EQ(r.branches, base.branches);
    EXPECT_GT(r.mispredictions, base.mispredictions);
    EXPECT_GT(faulty.injector().flips(), 1000u);
}

TEST(FaultInjector, TargetPrefixRestrictsFields)
{
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2;
    plan.targetPrefix = "pred.gshare.pht";
    robust::FaultInjector injector(plan);

    auto pred = makePredictor(PredictorKind::Gshare, 64 * 1024);
    injector.inject(*pred);

    EXPECT_GT(injector.flips(), 0u);
    for (const auto &[name, n] : injector.flipsByField()) {
        EXPECT_EQ(name.rfind("pred.gshare.pht", 0), 0u) << name;
        EXPECT_GT(n, 0u);
    }
}

TEST(FaultPlan, MatchesCombinesPrefixesAndExactNames)
{
    robust::FaultPlan plan;
    // No targeting at all: everything matches.
    EXPECT_TRUE(plan.matches("pred.gshare.pht"));
    EXPECT_TRUE(plan.matches(""));

    plan.targetPrefix = "pred.gshare.";
    EXPECT_TRUE(plan.matches("pred.gshare.pht"));
    EXPECT_FALSE(plan.matches("pred.perceptron.weights"));

    // Multiple prefixes OR together, and with the legacy single one.
    plan.targetPrefixes = {"pred.2bc-gskew.g0", "pred.2bc-gskew.g1"};
    EXPECT_TRUE(plan.matches("pred.gshare.history"));
    EXPECT_TRUE(plan.matches("pred.2bc-gskew.g0"));
    EXPECT_TRUE(plan.matches("pred.2bc-gskew.g1"));
    EXPECT_FALSE(plan.matches("pred.2bc-gskew.meta"));

    // Exact names are exact: no prefix semantics.
    plan.targetPrefix.clear();
    plan.targetPrefixes.clear();
    plan.targetFields = {"pred.perceptron.global_history"};
    EXPECT_TRUE(plan.matches("pred.perceptron.global_history"));
    EXPECT_FALSE(plan.matches("pred.perceptron.global_histories"));
    EXPECT_FALSE(plan.matches("pred.perceptron"));
}

TEST(FaultInjector, ExactFieldTargetingHitsOnlyThatField)
{
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2;
    plan.targetFields = {"pred.gshare.history"};
    robust::FaultInjector injector(plan);

    auto pred = makePredictor(PredictorKind::Gshare, 64 * 1024);
    // The history register is tiny; fire enough events for the
    // Poisson sampler to land at least one flip in it.
    for (int i = 0; i < 200; ++i)
        injector.inject(*pred);
    EXPECT_GT(injector.flips(), 0u);
    ASSERT_EQ(injector.flipsByField().size(), 1u);
    EXPECT_EQ(injector.flipsByField().begin()->first,
              "pred.gshare.history");
}

TEST(FaultInjector, MultiPrefixTargetingCoversListedBanksOnly)
{
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2;
    plan.targetPrefixes = {"pred.2bc-gskew.g0", "pred.2bc-gskew.g1"};
    robust::FaultInjector injector(plan);

    auto pred = makePredictor(PredictorKind::Gskew, 64 * 1024);
    injector.inject(*pred);

    EXPECT_GT(injector.flips(), 0u);
    EXPECT_GE(injector.flipsByField().size(), 2u);
    for (const auto &[name, n] : injector.flipsByField()) {
        EXPECT_TRUE(name.rfind("pred.2bc-gskew.g0", 0) == 0 ||
                    name.rfind("pred.2bc-gskew.g1", 0) == 0)
            << name;
        EXPECT_GT(n, 0u);
    }
}

TEST(FaultInjector, EventMatchingNoFieldThrows)
{
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-2;
    plan.targetPrefix = "pred.gshrae.";
    plan.targetFields = {"pred.gshare.pth"};
    robust::FaultInjectingPredictor pred(
        makePredictor(PredictorKind::Gshare, 16 * 1024), plan);
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 20000, 3);
    try {
        runAccuracy(pred, trace);
        FAIL() << "a plan that matches no field must not run";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("pred.gshrae.*"), std::string::npos) << what;
        EXPECT_NE(what.find("pred.gshare.pth"), std::string::npos)
            << what;
    }

    // A predictor with no state fails the same way, even under an
    // untargeted plan.
    StaticPredictor stateless(true);
    robust::FaultInjector injector(robust::FaultPlan{});
    EXPECT_THROW(injector.inject(stateless), std::invalid_argument);
}

TEST(TraceFault, CorruptTraceIsDeterministicAndKeepsClasses)
{
    const auto w = makeWorkload("254.gap");
    const TraceBuffer original = generateTrace(*w, 30000, 9);

    Rng rngA(77), rngB(77);
    robust::TraceCorruption statsA, statsB;
    const TraceBuffer a =
        robust::corruptTrace(original, 0.01, rngA, &statsA);
    const TraceBuffer b =
        robust::corruptTrace(original, 0.01, rngB, &statsB);

    EXPECT_GT(statsA.recordsHit, 0u);
    EXPECT_EQ(statsA.recordsHit, statsB.recordsHit);
    EXPECT_EQ(statsA.total(), statsB.total());

    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cls, original[i].cls) << "op " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "op " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "op " << i;
        if (a[i].pc != original[i].pc ||
            a[i].taken != original[i].taken ||
            a[i].extra != original[i].extra)
            ++diffs;
    }
    EXPECT_GT(diffs, 0u);

    // The copy's branch columns are built from its corrupted ops.
    const BranchSpan view = a.branchView();
    std::size_t k = 0;
    for (const MicroOp &op : a) {
        if (op.cls != InstClass::CondBranch)
            continue;
        ASSERT_LT(k, view.size());
        ASSERT_EQ(view.pc(k), op.pc) << "branch " << k;
        ASSERT_EQ(view.taken(k), op.taken) << "branch " << k;
        ++k;
    }
    EXPECT_EQ(k, view.size());

    // The corrupted trace still drives a full accuracy run.
    auto pred = makePredictor(PredictorKind::Gshare, 16 * 1024);
    const AccuracyResult r = runAccuracy(*pred, a);
    EXPECT_GT(r.branches, 0u);
}

} // namespace
} // namespace bpsim

/** @file Tests for the out-of-order timing model. */

#include "sim/ooo_core.hh"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "obs/event_trace.hh"
#include "pipeline/prediction_column.hh"
#include "trace/trace_buffer.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

/** Build a trace of @p n independent single-cycle ALU ops. */
TraceBuffer
independentAlus(std::size_t n)
{
    TraceBuffer t;
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op;
        op.pc = 0x1000 + (i % 8) * 4;
        op.cls = InstClass::IntAlu;
        op.dst = static_cast<std::uint8_t>(1 + i % 60);
        t.push(op);
    }
    return t;
}

/** A serial dependence chain: each op reads the previous one's dst. */
TraceBuffer
serialChain(std::size_t n)
{
    TraceBuffer t;
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op;
        op.pc = 0x1000 + (i % 8) * 4;
        op.cls = InstClass::IntAlu;
        op.dst = static_cast<std::uint8_t>(1 + i % 2);
        op.srcA = static_cast<std::uint8_t>(1 + (i + 1) % 2);
        t.push(op);
    }
    return t;
}

/** Alternate k ALU ops with one conditional branch of fixed outcome
 *  pattern; @p taken_fn gives the outcome per branch. */
TraceBuffer
branchy(std::size_t branches, unsigned gap,
        const std::function<bool(std::size_t)> &taken_fn)
{
    TraceBuffer t;
    for (std::size_t b = 0; b < branches; ++b) {
        for (unsigned i = 0; i < gap; ++i) {
            MicroOp op;
            op.cls = InstClass::IntAlu;
            op.pc = 0x1000;
            op.dst = static_cast<std::uint8_t>(1 + i % 50);
            t.push(op);
        }
        MicroOp br;
        br.cls = InstClass::CondBranch;
        br.pc = 0x2000;
        br.taken = taken_fn(b);
        br.extra = 0x3000;
        t.push(br);
    }
    return t;
}

/** A column answering @p fn(ordinal, actual outcome) for each
 *  conditional branch of @p t, in trace order. */
PredictionColumn
columnFor(const TraceBuffer &t,
          const std::function<std::pair<bool, unsigned>(std::size_t,
                                                        bool)> &fn)
{
    PredictionColumn column;
    std::size_t k = 0;
    for (std::size_t i = 0; i < t.size(); ++i)
        if (t[i].cls == InstClass::CondBranch) {
            const auto [taken, bubbles] = fn(k++, t[i].taken);
            column.push(taken, bubbles);
        }
    return column;
}

/** What a static predictor answers: @p taken for every branch, at
 *  @p bubbles fetch bubbles each. */
PredictionColumn
staticColumn(const TraceBuffer &t, bool taken, unsigned bubbles = 0)
{
    return columnFor(t, [=](std::size_t, bool) {
        return std::pair{taken, bubbles};
    });
}

SimResult
simulate(const TraceBuffer &t, const PredictionColumn &column,
         CoreConfig cfg = CoreConfig{})
{
    return OooCore(cfg).run(t, column);
}

TEST(OooCore, CommitsEverything)
{
    const auto t = independentAlus(5000);
    const auto r =
        simulate(t, staticColumn(t, true));
    EXPECT_EQ(r.instructions, 5000u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(OooCore, IpcBoundedByIssueWidth)
{
    const auto t = independentAlus(20000);
    const auto r =
        simulate(t, staticColumn(t, true));
    EXPECT_LE(r.ipc(), 8.0);
    EXPECT_GT(r.ipc(), 4.0)
        << "independent ALUs should sustain most of the width";
}

TEST(OooCore, SerialChainLimitsIpcToOne)
{
    const auto t = serialChain(20000);
    const auto r =
        simulate(t, staticColumn(t, true));
    EXPECT_LE(r.ipc(), 1.05);
    EXPECT_GT(r.ipc(), 0.8);
}

TEST(OooCore, MispredictionsCostPipelineDepth)
{
    // All-taken branches: a never-taken predictor mispredicts every
    // branch, an always-taken predictor none.
    const auto t = branchy(2000, 6, [](auto) { return true; });
    const auto good =
        simulate(t, staticColumn(t, true));
    const auto bad =
        simulate(t, staticColumn(t, false));
    EXPECT_EQ(good.mispredictions, 0u);
    EXPECT_EQ(bad.mispredictions, 2000u);
    EXPECT_GT(good.ipc(), 2.0 * bad.ipc());
    // Penalty per misprediction is on the order of the front-end
    // depth (Table 1's 20-deep pipe).
    const double penalty =
        static_cast<double>(bad.cycles - good.cycles) / 2000.0;
    EXPECT_GT(penalty, 10.0);
    EXPECT_LT(penalty, 40.0);
}

TEST(OooCore, DeeperFrontEndHurtsMispredictionsMore)
{
    const auto t = branchy(2000, 6, [](auto b) { return b % 2 == 0; });
    CoreConfig shallow;
    shallow.frontEndDepth = 6;
    CoreConfig deep;
    deep.frontEndDepth = 25;
    const auto rs = simulate(t, staticColumn(t, true), shallow);
    const auto rd =
        simulate(t, staticColumn(t, true), deep);
    EXPECT_GT(rs.ipc(), rd.ipc());
}

TEST(OooCore, OverridingBubblesReduceIpc)
{
    const auto t = branchy(4000, 6, [](auto) { return true; });
    CoreConfig cfg;
    // Ideal single-cycle predictor.
    auto ideal = simulate(t, staticColumn(t, true));
    // Same final predictions, but an overriding disagreement costs
    // 8 bubbles per branch.
    const auto r = simulate(t, staticColumn(t, true, 8), cfg);
    EXPECT_EQ(r.mispredictions, 0u);
    EXPECT_GT(r.overridingBubbleCycles, 0u);
    EXPECT_LT(r.ipc(), ideal.ipc());
}

TEST(OooCore, LoadMissesThrottleIpc)
{
    // Serial pointer chase over a range far larger than L2.
    TraceBuffer t;
    for (std::size_t i = 0; i < 20000; ++i) {
        MicroOp op;
        op.cls = InstClass::Load;
        op.pc = 0x1000;
        op.extra = (i * 524287) % (512u * 1024 * 1024);
        op.dst = 1;
        op.srcA = 1;
        t.push(op);
    }
    const auto r =
        simulate(t, staticColumn(t, true));
    // ~236 cycles per op: slow, but the livelock guard scales with
    // the miss latencies, so the chase runs to the end.
    EXPECT_EQ(r.instructions, t.size());
    EXPECT_LT(r.ipc(), 0.05);
    EXPECT_GT(r.l1dMissRate, 0.9);
}

TEST(OooCore, BtbMissPenaltyAccounted)
{
    // Taken branches at many distinct pcs blow out a tiny BTB.
    TraceBuffer t;
    for (std::size_t i = 0; i < 4000; ++i) {
        MicroOp br;
        br.cls = InstClass::CondBranch;
        br.pc = 0x1000 + (i % 1024) * 16;
        br.taken = true;
        br.extra = br.pc + 64;
        t.push(br);
    }
    CoreConfig small;
    small.btbEntries = 16;
    const auto r = simulate(t, staticColumn(t, true), small);
    EXPECT_GT(r.btbMissPenaltyCycles, 0u);
    EXPECT_LT(r.btbHitRate, 0.9);
}

TEST(OooCore, ResultRates)
{
    const auto t = branchy(100, 9, [](auto b) { return b % 4 != 0; });
    const auto r =
        simulate(t, staticColumn(t, true));
    EXPECT_EQ(r.condBranches, 100u);
    EXPECT_EQ(r.mispredictions, 25u);
    EXPECT_DOUBLE_EQ(r.mispredictionRate(), 0.25);
    EXPECT_DOUBLE_EQ(r.mispredictionPercent(), 25.0);
    EXPECT_EQ(r.instructions, t.size());
}

/** Run @p t under a taken-predictor with a tracer attached; return
 *  the cycle its one mispredicted (not-taken) branch resolved. */
Cycle
resolveCycle(const TraceBuffer &t, const CoreConfig &cfg, SimResult &r)
{
    obs::EventTracer tracer;
    OooCore core(cfg);
    core.attachTracer(&tracer);
    r = core.run(t, staticColumn(t, true));
    EXPECT_EQ(r.instructions, t.size());
    EXPECT_EQ(r.mispredictions, 1u);
    for (std::size_t i = 0; i < tracer.size(); ++i)
        if (tracer.at(i).type == obs::SimEvent::MispredictResolve)
            return tracer.at(i).cycle;
    ADD_FAILURE() << "the branch never resolved";
    return 0;
}

/**
 * A cold load miss, @p dependents ops that read its result, then one
 * independent conditional branch that a taken-predictor mispredicts.
 * Returns the cycle the branch resolves, i.e. when it completed.
 */
Cycle
branchResolveCycle(std::size_t dependents, unsigned issue_width)
{
    TraceBuffer t;
    MicroOp load;
    load.cls = InstClass::Load;
    load.pc = 0x1000;
    load.extra = 0x4000000; // cold: misses L1 and L2
    load.dst = 1;
    t.push(load);
    for (std::size_t i = 0; i < dependents; ++i) {
        MicroOp op;
        op.cls = InstClass::IntAlu;
        op.pc = 0x1000;
        op.srcA = 1;
        op.dst = static_cast<std::uint8_t>(2 + i % 50);
        t.push(op);
    }
    MicroOp br;
    br.cls = InstClass::CondBranch;
    br.pc = 0x1000;
    br.taken = false;
    br.extra = 0x3000;
    t.push(br);

    CoreConfig cfg;
    cfg.issueWidth = issue_width;
    SimResult r;
    return resolveCycle(t, cfg, r);
}

TEST(OooCore, IssueScansOnlyTheOldestUnissuedWindow)
{
    // Issue looks at no more than issueWidth * 8 unissued entries per
    // cycle. With that many ops stuck behind a load miss, a ready op
    // one place further back must wait for the miss; one place
    // earlier it is inside the window and issues at once.
    const CoreConfig table1;
    const Cycle miss = table1.l1dHitCycles + table1.l2HitCycles +
                       table1.memoryCycles;
    for (unsigned width : {4u, 8u}) {
        SCOPED_TRACE("issue width " + std::to_string(width));
        const std::size_t window = std::size_t{width} * 8;
        const Cycle inside = branchResolveCycle(window - 1, width);
        const Cycle outside = branchResolveCycle(window, width);
        // The inside branch issues within window / width + 2 cycles of
        // the load; the outside one only after the load's data
        // returns, a full miss later.
        EXPECT_GE(outside, inside + miss - 2 * window / width);
    }
}

TEST(OooCore, LivelockGuardThrowsInsteadOfTruncating)
{
    // 2000 ops of mcf with a million-cycle bubble per branch, far
    // beyond any stock delay-hiding scheme, run far past the guard:
    // the run must fail loudly, naming how far it got, rather than
    // return a partial SimResult.
    const auto w = makeWorkload("181.mcf");
    const TraceBuffer t = generateTrace(*w, 2000, 42);
    OooCore core(CoreConfig{});
    try {
        core.run(t, staticColumn(t, true, 1000000));
        FAIL() << "expected the livelock guard to throw";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("livelock guard tripped at cycle"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("/ 2000 ops fetched"), std::string::npos)
            << msg;
    }
}

/** The accounting identities every run satisfies (what `bpstat
 *  check` enforces on reports). */
void
expectInvariants(const SimResult &r, const TraceBuffer &t,
                 const CoreConfig &cfg)
{
    EXPECT_EQ(r.instructions, t.size());
    EXPECT_EQ(r.condBranches, t.condBranches());
    EXPECT_EQ(r.squashedUops, cfg.issueWidth * r.flushCycles());
    EXPECT_EQ(r.frontEndStallCycles,
              r.overrideStallCycles + r.btbStallCycles);
}

TEST(OooCore, SyntheticColumnsDriveMispredictionsAndBubbles)
{
    // The core reads predictions from the column alone: a column
    // that is right on every branch, one that is wrong on every
    // branch, and one that is right but charges bubbles on some.
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer t = generateTrace(*w, 20000, 42);
    ASSERT_GT(t.condBranches(), 1000u);
    const CoreConfig cfg;

    const auto right = columnFor(t, [](std::size_t, bool taken) {
        return std::pair{taken, 0u};
    });
    const auto wrong = columnFor(t, [](std::size_t, bool taken) {
        return std::pair{!taken, 0u};
    });
    Counter bubbleSum = 0, bubbled = 0;
    const auto bubbly = columnFor(t, [&](std::size_t k, bool taken) {
        const unsigned b = k % 3 == 0 ? static_cast<unsigned>(k % 7) : 0u;
        bubbleSum += b;
        bubbled += b > 0;
        return std::pair{taken, b};
    });
    ASSERT_GT(bubbled, 0u);

    const SimResult r = simulate(t, right, cfg);
    expectInvariants(r, t, cfg);
    EXPECT_EQ(r.mispredictions, 0u);
    EXPECT_EQ(r.overridingBubbleCycles, 0u);
    EXPECT_EQ(r.flushes, 0u);
    EXPECT_EQ(r.flushCycles(), 0u);

    const SimResult x = simulate(t, wrong, cfg);
    expectInvariants(x, t, cfg);
    EXPECT_EQ(x.mispredictions, t.condBranches());
    EXPECT_EQ(x.overridingBubbleCycles, 0u);
    EXPECT_EQ(x.flushes, t.condBranches());
    EXPECT_GT(x.mispredictWaitCycles, 0u);
    EXPECT_GT(x.cycles, r.cycles);

    const SimResult b = simulate(t, bubbly, cfg);
    expectInvariants(b, t, cfg);
    EXPECT_EQ(b.mispredictions, 0u);
    EXPECT_EQ(b.overridingBubbleCycles, bubbleSum);
    EXPECT_EQ(b.flushes, bubbled);
    EXPECT_GT(b.overrideStallCycles, 0u);
    EXPECT_GT(b.cycles, r.cycles);
}

TEST(OooCore, ColumnOfTheWrongLengthThrowsBeforeSimulating)
{
    const auto w = makeWorkload("164.gzip");
    const TraceBuffer t = generateTrace(*w, 5000, 42);
    ASSERT_GT(t.condBranches(), 0u);
    PredictionColumn shortColumn;
    for (Counter k = 0; k + 1 < t.condBranches(); ++k)
        shortColumn.push(true, 0);
    PredictionColumn longColumn = staticColumn(t, true);
    longColumn.push(true, 0);

    for (const PredictionColumn *c : {&shortColumn, &longColumn}) {
        obs::EventTracer tracer;
        OooCore core(CoreConfig{});
        core.attachTracer(&tracer);
        try {
            core.run(t, *c);
            FAIL() << "expected a length mismatch to throw";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::to_string(t.condBranches()) +
                          " conditional branches"),
                      std::string::npos)
                << e.what();
        }
        // Nothing was simulated: no cycle recorded a single event.
        EXPECT_EQ(tracer.size(), 0u);
    }
}

/** One micro-op at @p pc reading @p a and @p b into @p dst. */
MicroOp
opAt(Addr pc, InstClass cls, std::uint8_t dst, std::uint8_t a = 0,
     std::uint8_t b = 0)
{
    MicroOp op;
    op.pc = pc;
    op.cls = cls;
    op.dst = dst;
    op.srcA = a;
    op.srcB = b;
    return op;
}

// The operand rules below, with Table 1 latencies. Every trace sits in
// one cold i-cache line, so fetch stalls ifetchMemoryCycles (210) at
// cycle 0, fetches the whole trace at cycle 210, and dispatch sees it
// frontEndDepth (15) cycles later, at 225; an op dispatched in cycle c
// issues in c + 1 at the earliest, and a consumer issues in the cycle
// its producer completes.

TEST(OooCore, SameRegisterTwiceWaitsOnceOnItsProducer)
{
    // The branch reads r5 as both operands: two links onto the
    // multiply's consumer list, and the multiply's completion takes
    // its pending count from 2 to 0 in one wakeup. The multiply
    // issues at 226 and completes at 226 + mulCycles (7) = 233, where
    // the branch issues; it completes, and resolves, at 234. Both
    // commit by 235, so the run takes 236 cycles.
    TraceBuffer t;
    t.push(opAt(0x1000, InstClass::IntMul, 5));
    t.push(opAt(0x1004, InstClass::CondBranch, 0, 5, 5));
    SimResult r;
    EXPECT_EQ(resolveCycle(t, CoreConfig{}, r), 234u);
    EXPECT_EQ(r.cycles, 236u);
}

TEST(OooCore, ReusedProducerSlotDoesNotHoldAConsumer)
{
    // A two-entry ROB: the ALU op writing r5 takes slot 0 and commits
    // at 228, when the multiply reuses slot 0 just before the branch
    // reading r5 dispatches. r5 still names slot 0, but the sequence
    // number there is the multiply's, so the branch does not wait on
    // it: both issue at 229 and the branch resolves at 230, not after
    // the multiply completes at 236. The ROB is full with dispatchable
    // ops waiting at 226 and 227.
    CoreConfig cfg;
    cfg.robEntries = 2;
    TraceBuffer t;
    t.push(opAt(0x1000, InstClass::IntAlu, 5));
    t.push(opAt(0x1004, InstClass::IntAlu, 6));
    t.push(opAt(0x1008, InstClass::IntMul, 7));
    t.push(opAt(0x100c, InstClass::CondBranch, 0, 5));
    SimResult r;
    EXPECT_EQ(resolveCycle(t, cfg, r), 230u);
    EXPECT_EQ(r.robStallCycles, 2u);
    EXPECT_EQ(r.cycles, 238u);
}

TEST(OooCore, RegisterZeroNeverWaits)
{
    // The multiply writes r0 and the branch reads r0 twice: r0 is
    // never produced, so both issue at 226 and the branch resolves at
    // 227 while the multiply completes at 233.
    TraceBuffer t;
    t.push(opAt(0x1000, InstClass::IntMul, 0));
    t.push(opAt(0x1004, InstClass::CondBranch, 0, 0, 0));
    SimResult r;
    EXPECT_EQ(resolveCycle(t, CoreConfig{}, r), 227u);
    EXPECT_EQ(r.cycles, 235u);
}

} // namespace
} // namespace bpsim

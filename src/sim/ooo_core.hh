/**
 * @file
 * Trace-driven out-of-order superscalar timing model.
 *
 * A decoupled-front-end simulator in the SimpleScalar sim-outorder
 * tradition (the paper's substrate, Section 4.1.3): fetch is guided
 * by the branch predictor's answers and broken by taken branches,
 * I-cache misses, predictor bubbles and mispredictions; fetched
 * instructions traverse a front-end pipeline (whose depth dominates
 * the misprediction penalty), enter a reorder buffer, issue out of
 * order as operands become ready under an issue-width constraint,
 * and commit in order.
 *
 * The core holds no predictor. It reads the predictor's answers from
 * a PredictionColumn (pipeline/prediction_column.hh): entry k is the
 * (direction, bubble cycles) pair for the trace's k-th conditional
 * branch. That is exact because predictor state updates at fetch
 * with the actual outcome — the optimistic speculative-update-with-
 * perfect-recovery assumption of Section 4.1.2 — and the core
 * fetches each branch exactly once, in program order (an I-cache
 * miss returns before the branch is predicted). So a predictor's
 * answers depend only on the branch stream, and predictColumn()
 * (pipeline/fetch_predictor.hh) computes them before the core runs.
 *
 * Modelling choices and simplifications (all conservative w.r.t. the
 * paper's argument — they affect every predictor identically):
 *  - wrong-path instructions are not executed; a misprediction
 *    blocks correct-path fetch until the branch resolves, so the
 *    penalty = resolution delay + front-end refill, scaling with
 *    pipeline depth as in the paper;
 *  - overriding-predictor disagreement bubbles stall fetch for the
 *    slow predictor's latency (Section 2.6.1), as the column's
 *    bubble cycles say.
 */

#ifndef BPSIM_SIM_OOO_CORE_HH
#define BPSIM_SIM_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "pipeline/prediction_column.hh"
#include "sim/btb.hh"
#include "sim/cache.hh"
#include "sim/core_config.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/** Aggregate results of one timing-simulation run. */
struct SimResult
{
    Counter cycles = 0;
    Counter instructions = 0;
    Counter condBranches = 0;
    Counter mispredictions = 0;
    Counter overridingBubbleCycles = 0;
    Counter btbMissPenaltyCycles = 0;
    /** Cycles fetch spent waiting on a mispredicted branch. */
    Counter mispredictWaitCycles = 0;
    /** Cycles fetch was stalled on I-cache misses. */
    Counter icacheStallCycles = 0;
    /** Cycles fetch was stalled on predictor bubbles / BTB misses. */
    Counter frontEndStallCycles = 0;
    /** frontEndStallCycles split by cause: overriding-disagreement
     *  squash stalls vs. BTB-miss stalls. Their sum equals
     *  frontEndStallCycles. */
    Counter overrideStallCycles = 0;
    Counter btbStallCycles = 0;
    /** Cycles dispatch was blocked by a full ROB with insts waiting. */
    Counter robStallCycles = 0;
    /** Front-end restarts: mispredictions + overriding squashes. */
    Counter flushes = 0;
    /** Fetch slots lost to flush-caused stalls (wrong-path /
     *  squashed micro-ops, counted as issueWidth per lost cycle).
     *  Invariant: squashedUops == issueWidth * flushCycles(). */
    Counter squashedUops = 0;
    double l1iMissRate = 0.0;
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
    double btbHitRate = 0.0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
    double
    mispredictionRate() const
    {
        return condBranches ? static_cast<double>(mispredictions) /
                                  static_cast<double>(condBranches)
                            : 0.0;
    }
    double mispredictionPercent() const
    {
        return 100.0 * mispredictionRate();
    }
    /** Total cycles fetch lost to squash-causing flushes: the
     *  per-cause attribution (override + mispredict recovery) sums
     *  to this by construction. */
    Counter flushCycles() const
    {
        return overrideStallCycles + mispredictWaitCycles;
    }

    /**
     * Publish every counter into @p reg under the metric naming
     * convention (`sim.core.flush_cycles{cause=override}`, ...),
     * optionally tagging names with `{workload=...}`.
     */
    void publishMetrics(obs::MetricRegistry &reg,
                        const std::string &workload = "") const;
};

/** The out-of-order core. One instance simulates one trace run. */
class OooCore
{
  public:
    /** @param cfg Microarchitecture parameters (Table 1 defaults). */
    explicit OooCore(const CoreConfig &cfg);

    /**
     * Run the whole @p trace to completion and return the stats,
     * taking the k-th conditional branch's prediction from
     * @p column[k]. Throws std::invalid_argument, before simulating
     * anything, when the column's length differs from
     * trace.condBranches(). Throws std::runtime_error when the
     * livelock guard trips (per op: 64 cycles plus the config's
     * load-miss and i-fetch-miss latencies; plus 100000): a run never
     * returns a partial result.
     */
    SimResult run(const TraceBuffer &trace,
                  const PredictionColumn &column);

    /**
     * Attach an event tracer (not owned; may be nullptr to detach).
     * When attached, the core records per-cycle pipeline events —
     * override disagreements, mispredict resolutions, ROB-full
     * stalls, i-cache and BTB misses — into its ring buffer. An
     * unattached core pays one null check per *event*, never per
     * cycle.
     */
    void attachTracer(obs::EventTracer *tracer) { tracer_ = tracer; }

  private:
    struct Producer
    {
        std::int32_t robSlot = -1;
        InstSeqNum seq = 0;
    };

    /** "No entry" in a wakeup list. */
    static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

    struct RobEntry
    {
        InstSeqNum seq = 0;
        Cycle completeCycle = 0;
        std::uint32_t traceIndex = 0;
        /** Wakeup-list links, one per source operand: the next
         *  consumer waiting on the same producer, encoded
         *  `(slot << 1) | operand` (kNoLink ends the list). */
        std::uint32_t wakeNext[2] = {kNoLink, kNoLink};
        /** Head of this entry's own consumer list. */
        std::uint32_t wakeHead = kNoLink;
        /** Next entry completing in the same cycle. */
        std::uint32_t completeNext = kNoLink;
        /** Source operands whose producer has not completed. */
        std::uint8_t pending = 0;
        bool done = false;
        bool mispredictedBranch = false;
        bool valid = false;
    };

    struct FetchedInst
    {
        std::uint32_t traceIndex;
        Cycle dispatchReady;
        bool mispredictedBranch;
    };

    void fetchStage(const TraceBuffer &trace);
    void dispatchStage(const TraceBuffer &trace);
    void issueStage(const TraceBuffer &trace);
    void issue(const TraceBuffer &trace, std::size_t slot);
    void completeStage(const TraceBuffer &trace);
    void commitStage(const TraceBuffer &trace);

    /** Register ROB slot @p slot's operand @p operand as waiting on
     *  @p p, unless @p p has already completed (or retired). */
    void waitOn(const Producer &p, std::size_t slot, unsigned operand);

    unsigned loadLatency(Addr addr);
    Producer producerOf(std::uint8_t reg) const;

    CoreConfig cfg_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Btb btb_;

    /** Why fetch is currently stalled (for cycle attribution). */
    enum class StallReason : std::uint8_t {
        None,
        Icache,
        Override, ///< overriding-predictor disagreement squash
        BtbMiss,  ///< taken branch without a BTB target
        Redirect, ///< post-resolution redirect gap
    };

    Cycle cycle_ = 0;
    std::size_t fetchIndex_ = 0;
    Cycle fetchStallUntil_ = 0;
    StallReason stallReason_ = StallReason::None;
    bool fetchBlocked_ = false; ///< waiting on a mispredicted branch

    /** The run's prediction column and the ordinal of the next
     *  conditional branch to fetch. */
    const std::uint32_t *column_ = nullptr;
    std::size_t branchOrdinal_ = 0;

    std::deque<FetchedInst> fetchBuffer_;
    std::vector<RobEntry> rob_;
    std::size_t robHead_ = 0;
    std::size_t robTail_ = 0;
    std::size_t robCount_ = 0;
    InstSeqNum nextSeq_ = 1;

    std::vector<Producer> regProducer_;
    Addr lastFetchLine_ = ~Addr{0};

    /**
     * Wakeup-driven issue. One bit per ROB slot: @c unissued_ marks
     * dispatched entries not yet issued, @c ready_ the subset whose
     * operands have all completed. Dispatch links an entry onto each
     * unfinished producer's consumer list and counts them in
     * `pending`; completion walks the list, and an entry whose count
     * reaches zero sets its ready bit. issueStage then walks the
     * bitmaps a 64-slot word at a time in age order (ROB ring order
     * from the head), so a cycle costs a few word operations plus
     * one step per issued entry instead of a readiness check for
     * every entry in the issue window.
     */
    std::vector<std::uint64_t> unissued_;
    std::vector<std::uint64_t> ready_;
    std::size_t unissuedCount_ = 0;
    std::size_t readyCount_ = 0;

    /**
     * Completion wheel: bucket `cycle % size` lists, linked through
     * RobEntry::completeNext, the issued entries that complete in
     * that cycle, so completeStage touches only the entries that
     * actually finish. The wheel is longer than the slowest latency,
     * so a bucket never mixes cycles. Order within a bucket does not
     * matter: marking done and waking consumers commute, and at most
     * one unresolved mispredicted branch is ever in flight.
     */
    std::vector<std::uint32_t> completions_;

    obs::EventTracer *tracer_ = nullptr;
    SimResult result_;
};

} // namespace bpsim

#endif // BPSIM_SIM_OOO_CORE_HH

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
#include <string>

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
    CoreConfig cfg_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Btb btb_;
    obs::EventTracer *tracer_ = nullptr;
};

} // namespace bpsim

#endif // BPSIM_SIM_OOO_CORE_HH

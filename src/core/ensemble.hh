/**
 * @file
 * Batched accuracy replay: N same-family predictor configurations in
 * one pass over a trace.
 *
 * A figure sweep replays the same branch stream through many
 * configurations of one predictor kind (every gshare budget of
 * Figure 1, say). Run serially, each configuration re-streams the
 * trace — the pc/taken columns are read from memory once per cell.
 * The ensemble engine instead walks the trace's dense branch columns
 * (BranchSpan, structure-of-arrays) once, stepping every member
 * predictor per branch: the stream is read once per *group*, the
 * per-branch (pc, taken) pair stays in registers across members, and
 * the inner step is monomorphized per concrete predictor type via
 * withConcretePredictor (core/dispatch.hh) so predict/update inline
 * exactly as they do in the serial fast path.
 *
 * Determinism contract: members are independent — no state is shared
 * between them, and each member sees the identical predict(pc) /
 * update(pc, taken) call sequence the serial loop would issue. Every
 * member therefore finishes in a state bit-identical to a serial
 * run, and the per-member AccuracyResults are byte-identical to
 * runAccuracy()'s (golden-tested across all kinds and budgets in
 * tests/test_ensemble.cc). The perceptron family additionally gets a
 * specialized kernel that shares the per-branch ±1 input vector
 * across members (the dominant per-branch cost); it asserts its
 * preconditions (fresh members, matching local geometry) and falls
 * back to the generic loop otherwise, preserving the same contract.
 *
 * Grouping rules (the capability probe): a member list is batchable
 * when it has at least two members and every member resolves — after
 * unwrapping the stock robustness decorators (FaultInjectingPredictor
 * and ProtectedPredictor, in any nesting) — to the *same* concrete
 * inner type, one the monomorphic dispatcher knows. Wrapped members
 * replay through the inner fast path plus a per-member hook chain
 * that re-fires each wrapper's post-update tail (injection cadence,
 * parity/SEC-DED check, scrub) at exactly the per-member update
 * counts the serial path would have used; since each wrapper's
 * cadence reads only its own member's counters and state, the
 * member-major interleaving is invisible to it and results stay
 * bit-identical. Unknown user subclasses still fail the probe and
 * run serially.
 */

#ifndef BPSIM_CORE_ENSEMBLE_HH
#define BPSIM_CORE_ENSEMBLE_HH

#include <typeinfo>
#include <vector>

#include "core/runner.hh"
#include "predictors/predictor.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/**
 * True when @p members can be replayed as one batched group: at
 * least two, and every member — bare, or wrapped in any nesting of
 * the stock FaultInjecting/Protected decorators — unwrapping to the
 * same concrete inner type known to the monomorphic dispatcher.
 * Null entries, mixed inner families or unknown user subclasses
 * return false — the caller must run those serially.
 */
bool ensembleBatchable(
    const std::vector<DirectionPredictor *> &members);

/**
 * Accuracy grouping key: the concrete inner predictor type @p member
 * resolves to after unwrapping the stock robustness decorators, or
 * nullptr when the member is not batchable (unknown wrapper or inner
 * type). Two members with the same key may share a batched group
 * even when their wrapper chains differ — the mixed-wrapper case the
 * protection-surface studies sweep.
 */
const std::type_info *
ensembleAccuracyInnerType(DirectionPredictor &member);

/**
 * Replay every conditional branch of @p trace through all
 * @p members in one pass. Precondition: ensembleBatchable(members)
 * (unknown types still produce correct results through the virtual
 * interface, but then the pass only saves the trace re-streaming).
 * Returns one AccuracyResult per member, in member order, each
 * identical to what runAccuracy(member, trace) would have produced.
 */
std::vector<AccuracyResult>
runAccuracyEnsemble(const std::vector<DirectionPredictor *> &members,
                    const TraceBuffer &trace);

/** False when BPSIM_ENSEMBLE=0 — the escape hatch that forces every
 *  accuracy suite sweep down the serial path (A/B identity testing).
 *  Timing sweeps always run one cell per (config, workload). */
bool ensembleEnabled();

} // namespace bpsim

#endif // BPSIM_CORE_ENSEMBLE_HH

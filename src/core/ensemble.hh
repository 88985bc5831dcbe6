/**
 * @file
 * Batched perceptron replay: every perceptron configuration of a
 * sweep in one pass over a trace.
 *
 * A figure sweep replays the same branch stream through every
 * perceptron budget. Run serially, each configuration recomputes the
 * per-branch ±1 input vector — the dominant per-branch cost. Same-
 * family members see the identical update stream, so their global
 * and local histories evolve identically; the group kernel keeps one
 * shared copy of that history state, builds the input vector once
 * per branch, and each member pays only its own dot product and
 * (conditional) training sweep.
 *
 * Determinism contract: member weight tables stay independent, each
 * member sees the predict(pc) / update(pc, taken) sequence a serial
 * run would, and the shared history state is written back to every
 * member at the end. Per-member AccuracyResults, describeStats() and
 * visitState() images are therefore identical to runAccuracy()'s
 * (tests/test_ensemble.cc).
 *
 * Every other predictor kind replays one (config, workload) cell at
 * a time through runAccuracy(): a batched loop for those kinds bought
 * at most 1.3x over the serial loop, not worth a second replay path
 * (docs/PERFORMANCE.md).
 */

#ifndef BPSIM_CORE_ENSEMBLE_HH
#define BPSIM_CORE_ENSEMBLE_HH

#include <optional>
#include <vector>

#include "core/runner.hh"
#include "predictors/perceptron.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/**
 * Replay every conditional branch of @p trace through all
 * @p members in one pass, returning one AccuracyResult per member in
 * member order, each identical to runAccuracy(member, trace).
 * Returns std::nullopt, leaving every member untouched, when the
 * kernel's preconditions fail: a member that has already seen
 * branches, or members whose local-history geometries differ. The
 * caller then runs each member through runAccuracy().
 */
std::optional<std::vector<AccuracyResult>>
runPerceptronEnsemble(const std::vector<PerceptronPredictor *> &members,
                      const TraceBuffer &trace);

} // namespace bpsim

#endif // BPSIM_CORE_ENSEMBLE_HH

/**
 * @file
 * Fault models for the data feeding the simulator, as opposed to the
 * predictor SRAM itself:
 *
 *  - corruptTrace() flips bits in in-memory trace records ("in
 *    flight" corruption): branch outcomes invert, PCs and effective
 *    addresses get single-bit upsets. Instruction *classes* are left
 *    alone so the corrupted trace stays structurally valid — the
 *    model is memory upsets in a trace buffer, not a broken decoder.
 *  - corruptFileBytes() flips bits in a serialized file, for
 *    exercising reader hardening (trace + report parsers must throw
 *    their typed errors, never crash or over-read).
 */

#ifndef BPSIM_ROBUST_TRACE_FAULT_HH
#define BPSIM_ROBUST_TRACE_FAULT_HH

#include <string>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/trace_buffer.hh"

namespace bpsim::robust {

/** What corruptTrace() did, per record field. */
struct TraceCorruption
{
    Counter recordsHit = 0;
    Counter takenFlips = 0;
    Counter pcBitFlips = 0;
    Counter extraBitFlips = 0;

    Counter
    total() const
    {
        return takenFlips + pcBitFlips + extraBitFlips;
    }
};

/**
 * Corrupt ~@p rate of @p trace's records in place (Bernoulli per
 * record, deterministic under @p rng's seed). A hit record gets one
 * of: its taken bit inverted, one pc bit flipped, or one extra
 * (address/target) bit flipped, chosen uniformly.
 */
TraceCorruption corruptTrace(TraceBuffer &trace, double rate,
                             Rng &rng);

/**
 * Flip @p flips random bits of the file at @p path in place.
 * Returns the number of bits actually flipped (0 when the file is
 * missing or empty). Deterministic under @p rng's seed.
 */
Counter corruptFileBytes(const std::string &path, Counter flips,
                         Rng &rng);

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_TRACE_FAULT_HH

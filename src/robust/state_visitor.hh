/**
 * @file
 * Uniform access to predictor SRAM state for fault injection and
 * state auditing.
 *
 * The paper's complex predictors hold hundreds of kilobytes of SRAM
 * (PHT counters, perceptron weights, history registers, BTB entries)
 * — exactly the regime where soft errors (single-event upsets)
 * matter. Predictor state is architecturally invisible: a flipped
 * bit costs accuracy, never correctness, so graceful degradation is
 * measurable. This header defines the visitor through which a
 * predictor exposes every bit of that state.
 *
 * A predictor's visitState() presents its storage as a sequence of
 * named StateFields — homogeneous arrays of elements with a fixed
 * SRAM width — via load/store accessors. Visitors never learn the
 * host representation; they see (element index, raw bits) pairs, so
 * the same FaultInjector works on two-bit counters, 8-bit perceptron
 * weights and 64-bit BTB targets alike.
 *
 * Invariant (checked by tests/test_fault_injection.cc): the total
 * bits exposed by visitState() equal storageBits(), i.e. the fault
 * model covers exactly the hardware budget the paper charges.
 */

#ifndef BPSIM_ROBUST_STATE_VISITOR_HH
#define BPSIM_ROBUST_STATE_VISITOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/history.hh"
#include "common/packed_pht.hh"
#include "common/sat_counter.hh"

namespace bpsim::robust {

/**
 * One named array of SRAM state. Elements are @p bits wide; load()
 * returns the element's raw bit pattern right-justified, store()
 * overwrites it (implementations mask to the legal range).
 */
struct StateField
{
    std::string name;  ///< e.g. "pred.gshare.pht"
    std::size_t count; ///< elements in the array
    unsigned bits;     ///< SRAM bits per element (1..64)
    std::function<std::uint64_t(std::size_t)> load;
    std::function<void(std::size_t, std::uint64_t)> store;
    /** The neutral pattern a protection policy writes when it must
     *  invalidate an uncorrectable element (e.g. weakly-not-taken
     *  for two-bit counters, zero for weights and histories). */
    std::uint64_t resetValue = 0;

    /** Total SRAM bits this field contributes. */
    std::size_t totalBits() const { return count * bits; }
};

/** Receives every state field a predictor exposes. */
class StateVisitor
{
  public:
    virtual ~StateVisitor() = default;

    /** Called once per field, in a stable order. */
    virtual void visit(const StateField &field) = 0;
};

/**
 * Forwards every field to an inner visitor with @p prefix prepended
 * to its name. Hybrid predictors wrap their component walks in this
 * so nested fields get unique names (three gshare components must
 * not all expose "pred.gshare.pht" — per-field targeting and the
 * injector's per-field tallies key on names).
 */
class PrefixingStateVisitor : public StateVisitor
{
  public:
    PrefixingStateVisitor(StateVisitor &inner, std::string prefix)
        : inner_(inner), prefix_(std::move(prefix))
    {
    }

    void
    visit(const StateField &field) override
    {
        StateField renamed = field;
        renamed.name = prefix_ + field.name;
        inner_.visit(renamed);
    }

  private:
    StateVisitor &inner_;
    std::string prefix_;
};

// ---------------------------------------------------------------------
// Field builders for the storage types predictors actually use.
// ---------------------------------------------------------------------

/** A PHT of two-bit counters. */
inline StateField
counterField(std::string name, std::vector<TwoBitCounter> &pht)
{
    return {std::move(name), pht.size(), 2,
            [&pht](std::size_t i) {
                return static_cast<std::uint64_t>(pht[i].value());
            },
            [&pht](std::size_t i, std::uint64_t v) {
                pht[i].set(static_cast<std::uint8_t>(v & 3));
            },
            1};
}

/**
 * A packed PHT of two-bit counters (four per byte). Field shape —
 * (count, bits) and therefore bit addressing — is identical to
 * counterField over the equivalent byte-per-counter table, so fault
 * plans written against either representation hit the same bits.
 */
inline StateField
packedCounterField(std::string name, PackedPhtStorage &pht)
{
    return {std::move(name), pht.size(), 2,
            [&pht](std::size_t i) {
                return static_cast<std::uint64_t>(pht.value(i));
            },
            [&pht](std::size_t i, std::uint64_t v) {
                pht.set(i, static_cast<std::uint8_t>(v & 3));
            },
            1};
}

/** A bit-packed table of n-bit unsigned saturating counters; same
 *  field shape as satCounterField at the same width. */
inline StateField
packedSatField(std::string name, PackedSatStorage &table)
{
    const unsigned bits = table.bits();
    return {std::move(name), table.size(), bits,
            [&table](std::size_t i) {
                return static_cast<std::uint64_t>(table.value(i));
            },
            [&table, bits](std::size_t i, std::uint64_t v) {
                table.set(i, static_cast<std::uint8_t>(v &
                                                       loMask(bits)));
            },
            loMask(bits) >> 1};
}

/** A table of n-bit unsigned saturating counters (all same width). */
inline StateField
satCounterField(std::string name, std::vector<SatCounter> &table,
                unsigned bits)
{
    return {std::move(name), table.size(), bits,
            [&table](std::size_t i) {
                return static_cast<std::uint64_t>(table[i].value());
            },
            [&table, bits](std::size_t i, std::uint64_t v) {
                table[i].set(static_cast<std::uint8_t>(v &
                                                       loMask(bits)));
            },
            loMask(bits) >> 1};
}

/** A table of n-bit two's-complement signed weights. */
inline StateField
weightField(std::string name, std::vector<SignedWeight> &weights,
            unsigned bits)
{
    return {std::move(name), weights.size(), bits,
            [&weights, bits](std::size_t i) {
                return static_cast<std::uint64_t>(weights[i].value()) &
                       loMask(bits);
            },
            [&weights, bits](std::size_t i, std::uint64_t v) {
                // Sign-extend the n-bit raw pattern; every pattern is
                // a legal weight, so no clamping is needed.
                std::int64_t s =
                    static_cast<std::int64_t>(v & loMask(bits));
                if (s >= (std::int64_t{1} << (bits - 1)))
                    s -= std::int64_t{1} << bits;
                weights[i].set(static_cast<std::int16_t>(s));
            }};
}

/** As weightField, over raw int16 storage (vectorizable perceptron
 *  rows). Same (count, bits) shape and sign-extension semantics. */
inline StateField
weightField(std::string name, std::vector<std::int16_t> &weights,
            unsigned bits)
{
    return {std::move(name), weights.size(), bits,
            [&weights, bits](std::size_t i) {
                return static_cast<std::uint64_t>(weights[i]) &
                       loMask(bits);
            },
            [&weights, bits](std::size_t i, std::uint64_t v) {
                std::int64_t s =
                    static_cast<std::int64_t>(v & loMask(bits));
                if (s >= (std::int64_t{1} << (bits - 1)))
                    s -= std::int64_t{1} << bits;
                weights[i] = static_cast<std::int16_t>(s);
            }};
}

/** A branch history shift register, one bit per element. */
inline StateField
historyField(std::string name, HistoryRegister &h)
{
    return {std::move(name), h.length(), 1,
            [&h](std::size_t i) {
                return std::uint64_t{
                    h.bit(static_cast<unsigned>(i)) ? 1u : 0u};
            },
            [&h](std::size_t i, std::uint64_t v) {
                h.setBit(static_cast<unsigned>(i), v & 1);
            }};
}

/** A single @p bits wide register stored in one host word. */
inline StateField
wordField(std::string name, std::uint64_t &word, unsigned bits)
{
    return {std::move(name), 1, bits,
            [&word, bits](std::size_t) { return word & loMask(bits); },
            [&word, bits](std::size_t, std::uint64_t v) {
                word = v & loMask(bits);
            }};
}

/** An array of @p bits wide values packed one per host word (local
 *  history tables). */
inline StateField
wordArrayField(std::string name, std::vector<std::uint64_t> &words,
               unsigned bits)
{
    return {std::move(name), words.size(), bits,
            [&words, bits](std::size_t i) {
                return words[i] & loMask(bits);
            },
            [&words, bits](std::size_t i, std::uint64_t v) {
                words[i] = v & loMask(bits);
            }};
}

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_STATE_VISITOR_HH

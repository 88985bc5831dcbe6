/**
 * @file
 * Uniform access to predictor SRAM state for fault injection and
 * state auditing.
 *
 * The paper's complex predictors hold hundreds of kilobytes of SRAM
 * (PHT counters, perceptron weights, history registers, tagged
 * cache entries) — exactly the regime where soft errors
 * (single-event upsets) matter. Predictor state is architecturally
 * invisible: a flipped bit costs accuracy, never correctness, so
 * graceful degradation is measurable. This header defines the
 * visitor through which a predictor exposes every bit of that state.
 *
 * A predictor's visitState() presents its storage as a sequence of
 * named StateFields — homogeneous arrays of elements with a fixed
 * SRAM width. A field is a plain descriptor: which host storage type
 * it covers (a closed FieldKind), where it lives and its shape.
 * Visitors never touch the host representation; load(), store() and
 * fill() translate (element index, raw bits) pairs for every kind,
 * so the same FaultInjector works on two-bit counters, 8-bit
 * perceptron weights and history bits alike.
 *
 * Invariant (checked by tests/test_fault_injection.cc): the total
 * bits exposed by visitState() equal storageBits(), i.e. the fault
 * model covers exactly the hardware budget the paper charges.
 */

#ifndef BPSIM_ROBUST_STATE_VISITOR_HH
#define BPSIM_ROBUST_STATE_VISITOR_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/history.hh"
#include "common/packed_pht.hh"
#include "common/sat_counter.hh"

namespace bpsim::robust {

/** The host storage types a StateField can describe. */
enum class FieldKind : std::uint8_t {
    PackedTwoBit, ///< a PackedPhtStorage (base: the table)
    PackedSat,    ///< a PackedSatStorage (base: the table)
    SatCounters,  ///< SatCounter objects every stride bytes
    Int16,        ///< two's-complement weights, sign-extended on store
    History,      ///< a HistoryRegister's bits (base: the register)
    Uint8,        ///< one-byte unsigned values every stride bytes
    Uint16,       ///< two-byte unsigned values every stride bytes
    Uint64,       ///< host words every stride bytes
};

/**
 * One named array of SRAM state: @p count elements of @p bits SRAM
 * bits each. For the array kinds element i lives at byte
 * i * stride from base; the table kinds (packed, history) point
 * base at the storage object and ignore stride.
 */
struct StateField
{
    std::string name;  ///< e.g. "pred.gshare.pht"
    FieldKind kind;
    void *base;        ///< storage object, or element 0's bytes
    std::size_t count; ///< elements in the array
    unsigned bits;     ///< SRAM bits per element (1..64)
    std::size_t stride = 0; ///< bytes between elements (array kinds)
    /** The neutral pattern a protection policy writes when it must
     *  invalidate an uncorrectable element (e.g. weakly-not-taken
     *  for two-bit counters, zero for weights and histories). */
    std::uint64_t resetValue = 0;

    /** Total SRAM bits this field contributes. */
    std::size_t totalBits() const { return count * bits; }
};

namespace detail {

template <class T>
std::uint64_t
readAt(const std::byte *p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return static_cast<std::uint64_t>(v);
}

template <class T>
void
writeAt(std::byte *p, std::uint64_t v)
{
    const T t = static_cast<T>(v);
    std::memcpy(p, &t, sizeof t);
}

} // namespace detail

/** Element @p i of @p f as its raw bits, right-justified. */
inline std::uint64_t
load(const StateField &f, std::size_t i)
{
    const std::byte *p = static_cast<std::byte *>(f.base) + i * f.stride;
    switch (f.kind) {
      case FieldKind::PackedTwoBit:
        return static_cast<const PackedPhtStorage *>(f.base)->value(i);
      case FieldKind::PackedSat:
        return static_cast<const PackedSatStorage *>(f.base)->value(i);
      case FieldKind::SatCounters:
        return reinterpret_cast<const SatCounter *>(p)->value();
      case FieldKind::Int16:
        return detail::readAt<std::int16_t>(p) & loMask(f.bits);
      case FieldKind::History:
        return static_cast<const HistoryRegister *>(f.base)->bit(
            static_cast<unsigned>(i));
      case FieldKind::Uint8:
        return detail::readAt<std::uint8_t>(p) & loMask(f.bits);
      case FieldKind::Uint16:
        return detail::readAt<std::uint16_t>(p) & loMask(f.bits);
      case FieldKind::Uint64:
        return detail::readAt<std::uint64_t>(p) & loMask(f.bits);
    }
    return 0;
}

/** Overwrite element @p i of @p f with the low f.bits of @p v. */
inline void
store(const StateField &f, std::size_t i, std::uint64_t v)
{
    v &= loMask(f.bits);
    std::byte *p = static_cast<std::byte *>(f.base) + i * f.stride;
    switch (f.kind) {
      case FieldKind::PackedTwoBit:
        static_cast<PackedPhtStorage *>(f.base)->set(
            i, static_cast<std::uint8_t>(v));
        return;
      case FieldKind::PackedSat:
        static_cast<PackedSatStorage *>(f.base)->set(
            i, static_cast<std::uint8_t>(v));
        return;
      case FieldKind::SatCounters:
        reinterpret_cast<SatCounter *>(p)->set(
            static_cast<std::uint8_t>(v));
        return;
      case FieldKind::Int16: {
        // Every n-bit pattern is a legal weight: sign-extend it.
        const std::uint64_t sign = std::uint64_t{1} << (f.bits - 1);
        detail::writeAt<std::int16_t>(p, (v ^ sign) - sign);
        return;
      }
      case FieldKind::History:
        static_cast<HistoryRegister *>(f.base)->setBit(
            static_cast<unsigned>(i), v != 0);
        return;
      case FieldKind::Uint8:
        detail::writeAt<std::uint8_t>(p, v);
        return;
      case FieldKind::Uint16:
        detail::writeAt<std::uint16_t>(p, v);
        return;
      case FieldKind::Uint64:
        detail::writeAt<std::uint64_t>(p, v);
        return;
    }
}

/** Store @p v into elements [@p first, @p last) of @p f. */
inline void
fill(const StateField &f, std::size_t first, std::size_t last,
     std::uint64_t v)
{
    switch (f.kind) {
      case FieldKind::PackedTwoBit:
        static_cast<PackedPhtStorage *>(f.base)->fill(
            first, last, static_cast<std::uint8_t>(v & 3));
        return;
      default:
        for (; first < last; ++first)
            store(f, first, v);
        return;
    }
}

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

/** A packed PHT of two-bit counters (four per byte). */
inline StateField
packedCounterField(std::string name, PackedPhtStorage &pht,
                   std::uint64_t reset = 1)
{
    return {std::move(name), FieldKind::PackedTwoBit, &pht, pht.size(),
            2, 0, reset};
}

/** A bit-packed table of n-bit unsigned saturating counters; same
 *  field shape as satCounterField at the same width. */
inline StateField
packedSatField(std::string name, PackedSatStorage &table)
{
    return {std::move(name), FieldKind::PackedSat, &table, table.size(),
            table.bits(), 0, loMask(table.bits()) >> 1};
}

/** A table of n-bit unsigned saturating counters (all same width). */
inline StateField
satCounterField(std::string name, std::vector<SatCounter> &table,
                unsigned bits)
{
    return {std::move(name), FieldKind::SatCounters, table.data(),
            table.size(), bits, sizeof(SatCounter), loMask(bits) >> 1};
}

/** A table of n-bit two's-complement weights in int16 storage
 *  (vectorizable perceptron rows). */
inline StateField
weightField(std::string name, std::vector<std::int16_t> &weights,
            unsigned bits)
{
    return {std::move(name), FieldKind::Int16, weights.data(),
            weights.size(), bits, sizeof(std::int16_t)};
}

/** A branch history shift register, one bit per element. */
inline StateField
historyField(std::string name, HistoryRegister &h)
{
    return {std::move(name), FieldKind::History, &h, h.length(), 1};
}

/** A single @p bits wide register stored in one host word. */
inline StateField
wordField(std::string name, std::uint64_t &word, unsigned bits)
{
    return {std::move(name), FieldKind::Uint64, &word, 1, bits,
            sizeof(std::uint64_t)};
}

/** An array of @p bits wide values packed one per host word (local
 *  history tables). */
inline StateField
wordArrayField(std::string name, std::vector<std::uint64_t> &words,
               unsigned bits)
{
    return {std::move(name), FieldKind::Uint64, words.data(),
            words.size(), bits, sizeof(std::uint64_t)};
}

/** The one- or two-byte unsigned member @p m of every row of @p rows
 *  (tagged cache entries: tag, counter and valid arrays). */
template <class Row, class Member>
StateField
memberField(std::string name, std::vector<Row> &rows, Member Row::*m,
            unsigned bits, std::uint64_t reset = 0)
{
    static_assert(std::is_trivially_copyable_v<Member> &&
                  (sizeof(Member) == 1 || sizeof(Member) == 2));
    return {std::move(name),
            sizeof(Member) == 1 ? FieldKind::Uint8 : FieldKind::Uint16,
            &(rows.data()->*m), rows.size(), bits, sizeof(Row), reset};
}

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_STATE_VISITOR_HH

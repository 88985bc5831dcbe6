/**
 * @file
 * Branch history shift registers.
 *
 * Global history registers are the backbone of two-level and neural
 * predictors. The register here supports up to 256 bits so it can
 * serve the longest histories used by the perceptron and
 * multi-component predictors, with cheap snapshot/restore for
 * misprediction recovery (the paper's "speculative update with
 * checkpointing" policy, Skadron et al. JILP 2000).
 */

#ifndef BPSIM_COMMON_HISTORY_HH
#define BPSIM_COMMON_HISTORY_HH

#include <array>
#include <cassert>
#include <cstdint>

#include "common/bitutil.hh"

namespace bpsim {

/**
 * A fixed-capacity (256-bit) branch history shift register.
 *
 * Bit 0 is always the most recently inserted outcome. Only the low
 * @p length bits are meaningful; higher bits are kept zero so that
 * value comparison and hashing are well defined.
 */
class HistoryRegister
{
  public:
    /** Maximum supported history length in bits. */
    static constexpr unsigned maxLength = 256;

    /** Construct an all-zero history of @p length bits. */
    explicit HistoryRegister(unsigned length = 0) : length_(length)
    {
        assert(length <= maxLength);
        words_.fill(0);
    }

    /** Configured history length in bits. */
    unsigned length() const { return length_; }

    /** Shift in one outcome; the oldest bit falls off the end. */
    void
    shiftIn(bool taken)
    {
        std::uint64_t carry = taken ? 1 : 0;
        if (length_ <= 64) {
            // Single-word fast path. Histories of <= 64 bits keep
            // words_[1..] zero by construction (maskTop, setBit's
            // bounds assert), so only the low word moves. Every
            // two-level component in the factory configurations
            // lands here, and the full four-word ripple was the
            // single largest cost in the multi-component replay
            // loop (three shifts per branch).
            std::uint64_t w = (words_[0] << 1) | carry;
            if (length_ < 64)
                w &= loMask(length_);
            words_[0] = w;
            return;
        }
        for (auto &w : words_) {
            const std::uint64_t out = w >> 63;
            w = (w << 1) | carry;
            carry = out;
        }
        maskTop();
    }

    /** Outcome @p i branches ago (0 = most recent). */
    bool
    bit(unsigned i) const
    {
        assert(i < length_);
        return (words_[i / 64] >> (i % 64)) & 1;
    }

    /**
     * Overwrite one history bit in place. Normal operation only ever
     * shifts; this exists for fault injection (soft-error studies)
     * and state-audit tooling, which need to corrupt or patch
     * arbitrary positions.
     */
    void
    setBit(unsigned i, bool v)
    {
        assert(i < length_);
        const std::uint64_t mask = std::uint64_t{1} << (i % 64);
        if (v)
            words_[i / 64] |= mask;
        else
            words_[i / 64] &= ~mask;
    }

    /** The history as little-endian words: bit i is bit i % 64 of
     *  word i / 64, and the bits at and above length() are zero. */
    const std::uint64_t *words() const { return words_.data(); }

    /** The newest min(64, length) history bits as an integer. */
    std::uint64_t
    low64() const
    {
        return length_ >= 64 ? words_[0] : words_[0] & loMask(length_);
    }

    /** The newest @p n bits (n <= 64) as an integer. */
    std::uint64_t
    low(unsigned n) const
    {
        assert(n <= 64);
        return words_[0] & loMask(n);
    }

    /**
     * XOR-fold the entire live history down to @p out_bits bits.
     * Lets short index widths still observe long histories.
     */
    std::uint64_t
    fold(unsigned out_bits) const
    {
        if (out_bits == 0)
            return 0;
        if (length_ <= 64) {
            // Fixed-trip-count fold for single-word histories (every
            // factory configuration that folds lands here). The
            // generic foldBits loop exits when the remaining value
            // is zero, so its trip count follows the history
            // contents — a branch the host mispredicts constantly in
            // replay loops. Walking to length_ instead does the same
            // XORs with a trip count that never changes.
            const std::uint64_t v = words_[0];
            std::uint64_t r = v & loMask(out_bits);
            for (unsigned s = out_bits; s < length_; s += out_bits)
                r ^= (v >> s) & loMask(out_bits);
            return r & loMask(out_bits);
        }
        std::uint64_t r = 0;
        for (unsigned w = 0; w * 64 < length_; ++w)
            r ^= foldBits(words_[w], out_bits);
        return r & loMask(out_bits);
    }

    /** Zero all history bits (used at recovery to a known state). */
    void
    clear()
    {
        words_.fill(0);
    }

    /** Copy-assignable snapshot semantics: the whole class is POD-ish. */
    bool
    operator==(const HistoryRegister &other) const
    {
        return length_ == other.length_ && words_ == other.words_;
    }

  private:
    void
    maskTop()
    {
        if (length_ == maxLength)
            return;
        const unsigned full = length_ / 64;
        const unsigned rem = length_ % 64;
        if (full < words_.size())
            words_[full] &= loMask(rem);
        for (unsigned w = full + 1; w < words_.size(); ++w)
            words_[w] = 0;
    }

    std::array<std::uint64_t, maxLength / 64> words_;
    unsigned length_;
};

} // namespace bpsim

#endif // BPSIM_COMMON_HISTORY_HH

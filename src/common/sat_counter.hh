/**
 * @file
 * Saturating counters — the fundamental storage element of almost
 * every table-based branch predictor.
 */

#ifndef BPSIM_COMMON_SAT_COUNTER_HH
#define BPSIM_COMMON_SAT_COUNTER_HH

#include <cassert>
#include <cstdint>

namespace bpsim {

/**
 * An n-bit unsigned saturating counter.
 *
 * The counter counts in [0, 2^n - 1]. For direction prediction the
 * conventional interpretation is: values >= 2^(n-1) predict taken.
 * The counter is stored in a single byte, so predictors can pack
 * millions of them in contiguous arrays with good cache behaviour in
 * the *host* machine (the simulated SRAM geometry is modelled
 * separately by the delay library).
 */
class SatCounter
{
  public:
    /** Construct an @p bits wide counter with initial @p value. */
    explicit SatCounter(unsigned bits = 2, std::uint8_t value = 0)
        : value_(value), max_(static_cast<std::uint8_t>((1u << bits) - 1))
    {
        assert(bits >= 1 && bits <= 8);
        assert(value <= max_);
    }

    /** Current raw value. */
    std::uint8_t value() const { return value_; }

    /** Maximum representable value (2^bits - 1). */
    std::uint8_t maxValue() const { return max_; }

    /** Direction hint: true when in the taken half of the range. */
    bool taken() const { return value_ > max_ / 2; }

    /**
     * Whether the counter is in a weak state (adjacent to the
     * taken/not-taken boundary). Used by choosers and by the bi-mode
     * predictor's partial-update rule.
     */
    bool
    weak() const
    {
        return value_ == max_ / 2 || value_ == max_ / 2 + 1;
    }

    /** Increment with saturation. */
    void
    increment()
    {
        if (value_ < max_)
            ++value_;
    }

    /** Decrement with saturation. */
    void
    decrement()
    {
        if (value_ > 0)
            --value_;
    }

    /** Train toward @p taken (increment if taken, else decrement). */
    void
    update(bool taken)
    {
        if (taken)
            increment();
        else
            decrement();
    }

    /** Reset to a specific raw value. */
    void
    set(std::uint8_t value)
    {
        assert(value <= max_);
        value_ = value;
    }

  private:
    std::uint8_t value_;
    std::uint8_t max_;
};

/**
 * A compact two-bit counter for bulk PHT storage.
 *
 * Unlike SatCounter this has no per-counter width field, so a
 * 2^21-entry PHT costs exactly 2 MB of host memory instead of 4.
 * Semantics match SatCounter(2): 0,1 predict not-taken; 2,3 taken.
 */
class TwoBitCounter
{
  public:
    /** Construct weakly not-taken by default (value 1). */
    explicit TwoBitCounter(std::uint8_t value = 1) : value_(value) {}

    std::uint8_t value() const { return value_; }
    bool taken() const { return value_ >= 2; }
    bool weak() const { return value_ == 1 || value_ == 2; }

    void
    update(bool taken)
    {
        if (taken) {
            if (value_ < 3)
                ++value_;
        } else {
            if (value_ > 0)
                --value_;
        }
    }

    void set(std::uint8_t value) { value_ = value & 3; }

  private:
    std::uint8_t value_;
};

} // namespace bpsim

#endif // BPSIM_COMMON_SAT_COUNTER_HH

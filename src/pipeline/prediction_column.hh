/**
 * @file
 * The fetch predictor's answers for a whole trace, as a column.
 *
 * Timing runs assume speculative update with perfect recovery
 * (Section 4.1.2): the predictor is read and trained at fetch, with
 * the branch's actual outcome, once per conditional branch and in
 * program order. So what a fetch predictor answers depends only on
 * the branch stream, never on the cycle a branch is fetched in. A
 * timing cell therefore splits into a column pass, which replays the
 * branch stream through the predictor (predictColumn(), in
 * fetch_predictor.hh), and a core pass, which reads this column by
 * conditional-branch ordinal and knows nothing about predictors
 * (OooCore::run).
 *
 * The column also keys the timing memo (core/runner.hh): two cells
 * with equal traces, core configurations and columns time the same.
 */

#ifndef BPSIM_PIPELINE_PREDICTION_COLUMN_HH
#define BPSIM_PIPELINE_PREDICTION_COLUMN_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace bpsim {

/** A 128-bit digest (MurmurHash3 x64/128 of the column's bytes). */
struct Digest128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    auto operator<=>(const Digest128 &) const = default;
};

/**
 * One (predicted direction, bubble cycles) entry per conditional
 * branch, in trace order. Packed into 32 bits: bit 31 is the
 * direction, bits 0-30 the fetch bubbles the prediction costs even
 * when it is correct.
 */
class PredictionColumn
{
  public:
    static constexpr unsigned kMaxBubbleCycles = (1u << 31) - 1;

    void reserve(std::size_t n) { entries_.reserve(n); }

    /** Append the next branch's prediction; throws when
     *  @p bubble_cycles does not fit in 31 bits. */
    void
    push(bool taken, unsigned bubble_cycles)
    {
        if (bubble_cycles > kMaxBubbleCycles)
            throw std::out_of_range(
                "PredictionColumn: bubble cycles exceed 31 bits");
        entries_.push_back((taken ? 1u << 31 : 0u) | bubble_cycles);
    }

    std::size_t size() const { return entries_.size(); }
    bool taken(std::size_t i) const { return entries_[i] >> 31; }
    unsigned bubbleCycles(std::size_t i) const
    {
        return entries_[i] & kMaxBubbleCycles;
    }
    /** The packed entries (for the core pass's hot loop). */
    const std::uint32_t *data() const { return entries_.data(); }

    /** Digest of every entry and the column's length. */
    Digest128 digest() const;

  private:
    std::vector<std::uint32_t> entries_;
};

} // namespace bpsim

#endif // BPSIM_PIPELINE_PREDICTION_COLUMN_HH

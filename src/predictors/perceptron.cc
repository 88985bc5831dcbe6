#include "predictors/perceptron.hh"

#include <cassert>

#include "common/bitutil.hh"
#include "common/vec_kernels.hh"
#include "robust/state_visitor.hh"

namespace bpsim {

PerceptronPredictor::PerceptronPredictor(std::size_t num_perceptrons,
                                         unsigned global_bits,
                                         unsigned local_bits,
                                         std::size_t local_entries,
                                         unsigned weight_bits)
    : globalBits_(global_bits),
      localBits_(local_bits),
      weightBits_(weight_bits),
      numRows_(num_perceptrons),
      localMask_(local_entries - 1),
      threshold_(static_cast<int>(1.93 * (global_bits + local_bits)) +
                 14),
      weightMin_(-(1 << (weight_bits - 1))),
      weightMax_((1 << (weight_bits - 1)) - 1),
      rowStride_(1 + global_bits + local_bits),
      globalHistory_(global_bits),
      localHistories_(local_bits > 0 ? local_entries : 0, 0),
      inputs_(1 + global_bits + local_bits + 7, 0)
{
    assert(num_perceptrons >= 1);
    assert(local_bits == 0 || isPowerOfTwo(local_entries));
    assert(weight_bits >= 2 && weight_bits <= 16);
    weights_.assign(num_perceptrons * rowStride_, 0);
    inputs_[0] = 1; // bias input is constant
}

std::size_t
PerceptronPredictor::storageBits() const
{
    return weights_.size() * weightBits_ +
           localHistories_.size() * localBits_ +
           globalHistory_.length();
}

std::size_t
PerceptronPredictor::rowIndex(Addr pc) const
{
    // The row count need not be a power of two (the weight table is
    // indexed by a small modulo, as in the TOCS design), which lets
    // configurations use their full hardware budget.
    return static_cast<std::size_t>(indexPc(pc)) % numRows_;
}

std::size_t
PerceptronPredictor::localIndex(Addr pc) const
{
    return static_cast<std::size_t>(indexPc(pc)) & localMask_;
}

void
PerceptronPredictor::visitState(robust::StateVisitor &v)
{
    v.visit(robust::weightField("pred.perceptron.weights", weights_,
                                weightBits_));
    if (!localHistories_.empty())
        v.visit(robust::wordArrayField(
            "pred.perceptron.local_histories", localHistories_,
            localBits_));
    v.visit(robust::historyField("pred.perceptron.global_history",
                                 globalHistory_));
}

void
PerceptronPredictor::fillInputs(Addr pc)
{
    // Global first: its last row may spill into the local inputs,
    // which the local expansion then overwrites.
    std::int16_t *x = inputs_.data() + 1;
    expandSignsI16(x, globalHistory_.words(), globalBits_);
    if (localBits_ > 0)
        expandSignsI16(x + globalBits_, &localHistories_[localIndex(pc)],
                       localBits_);
}

bool
PerceptronPredictor::predict(Addr pc)
{
    fillInputs(pc);
    const std::int16_t *row = &weights_[rowIndex(pc) * rowStride_];
    lastOutput_ = dotSignedI16(row, inputs_.data(), rowStride_);
    return lastOutput_ >= 0;
}

void
PerceptronPredictor::update(Addr pc, bool taken)
{
    const bool predicted = lastOutput_ >= 0;
    const int magnitude =
        lastOutput_ >= 0 ? lastOutput_ : -lastOutput_;
    // Train on mispredictions and on low-confidence correct
    // predictions (|y| <= theta), per the TOCS training rule. The
    // inputs are refilled from live state rather than reused from
    // predict() so callers (and fault injection) that touch history
    // between the two calls see the same behaviour as the
    // per-element implementation did.
    if (predicted != taken || magnitude <= threshold_) {
        fillInputs(pc);
        std::int16_t *row = &weights_[rowIndex(pc) * rowStride_];
        trainSignedI16(row, inputs_.data(), rowStride_,
                       taken ? 1 : -1, weightMin_, weightMax_);
    }

    globalHistory_.shiftIn(taken);
    if (localBits_ > 0) {
        auto &lh = localHistories_[localIndex(pc)];
        lh = ((lh << 1) | (taken ? 1 : 0)) & loMask(localBits_);
    }
}

} // namespace bpsim

/**
 * @file
 * Perceptron predictor (Jimenez and Lin, "Neural Methods for Dynamic
 * Branch Prediction", ACM TOCS 2002) — one of the two "most accurate
 * known" predictors the paper evaluates.
 *
 * Each branch hashes to a perceptron: a vector of signed weights
 * over the global history bits, the per-branch local history bits
 * (the paper's configuration uses both, Section 4.1.1) and a bias
 * input. The prediction is the sign of the dot product; training
 * nudges weights on mispredictions or low-confidence outputs. The
 * dot product is also why the paper charges it extra computation
 * latency: it is "a deep circuit similar to a multiplier"
 * (Section 2.2).
 */

#ifndef BPSIM_PREDICTORS_PERCEPTRON_HH
#define BPSIM_PREDICTORS_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "common/history.hh"
#include "predictors/predictor.hh"

namespace bpsim {

/** Global+local history perceptron predictor. */
class PerceptronPredictor final : public DirectionPredictor
{
  public:
    /**
     * @param num_perceptrons Rows in the weight table (any count
     *        >= 1; indexing is modulo).
     * @param global_bits Global history inputs.
     * @param local_bits Local history inputs (0 disables the local
     *        table and makes this a pure global perceptron).
     * @param local_entries Local-history table entries (power of
     *        two).
     * @param weight_bits Weight width (8 in the literature).
     */
    PerceptronPredictor(std::size_t num_perceptrons,
                        unsigned global_bits, unsigned local_bits = 0,
                        std::size_t local_entries = 1024,
                        unsigned weight_bits = 8);

    std::string name() const override { return "perceptron"; }
    std::size_t storageBits() const override;
    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void visitState(robust::StateVisitor &v) override;

    /** Training threshold theta = 1.93 h + 14 (from the TOCS paper). */
    int threshold() const { return threshold_; }

  private:
    /** The perceptron group kernel (core/ensemble.cc) reads the
     *  geometry and weight rows directly and writes the final
     *  history state back, so same-family members can share one
     *  input-vector computation per branch. */
    friend struct PerceptronBatch;

    std::size_t rowIndex(Addr pc) const;
    std::size_t localIndex(Addr pc) const;
    void fillInputs(Addr pc);

    unsigned globalBits_;
    unsigned localBits_;
    unsigned weightBits_;
    std::size_t numRows_ = 1;
    std::size_t localMask_;
    int threshold_;
    int weightMin_;
    int weightMax_;

    /**
     * weights_[row * rowStride + j]: j=0 bias, then global, local.
     * Contiguous int16 (the SRAM width is weightBits_, charged by
     * storageBits()) so predict's dot product and update's training
     * sweep run over dense rows and auto-vectorize — see
     * common/vec_kernels.hh.
     */
    std::vector<std::int16_t> weights_;
    std::size_t rowStride_;
    HistoryRegister globalHistory_;
    std::vector<std::uint64_t> localHistories_;

    /** Scratch ±1 input vector (x[0] = 1 bias input, then seven
     *  spare entries for expandSignsI16's last row), refilled from
     *  the live history state by fillInputs() on every call so fault
     *  injection into history bits is observed exactly as before. */
    std::vector<std::int16_t> inputs_;

    // predict() -> update() carried state
    int lastOutput_ = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_PERCEPTRON_HH

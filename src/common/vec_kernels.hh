/**
 * @file
 * Tiny dense kernels for the perceptron's hot loops.
 *
 * The perceptron predict is a dot product of a signed weight row with
 * a ±1 input vector, and training is a saturating add of the scaled
 * input vector into the row. Stored as SignedWeight the row was an
 * array of 6-byte structs (value + per-element min/max), whose stride
 * defeats auto-vectorization; over contiguous int16 both loops below
 * compile to packed integer code at -O2 (GCC 12 enables the
 * vectorizer there), which bench/microbench pins with a dedicated
 * BM_PerceptronKernel benchmark.
 *
 * Saturation note: inputs are ±1 and @p dir is ±1, so a single
 * clamped add per element is exactly SignedWeight::train()'s
 * increment/decrement-with-saturation.
 *
 * Two flavors: the inline versions below, which the serial
 * perceptron calls once per branch (inlining into its predict/update
 * lets the compiler blend the loop with fillInputs), and the *Wide
 * versions in vec_kernels.cc under target_clones("avx2", "default")
 * for the perceptron group kernel, which issues one call per member
 * per branch over shared inputs — there the ifunc dispatch picks the
 * 256-bit clone at load time (the baseline x86-64 build only
 * vectorizes at SSE2 width) and the call overhead is amortized
 * across the group's row loads.
 */

#ifndef BPSIM_COMMON_VEC_KERNELS_HH
#define BPSIM_COMMON_VEC_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace bpsim {

/** Dot product of an int16 weight row with a ±1 int16 input vector,
 *  accumulated in int (no overflow: |w| < 2^15, n <= a few hundred). */
inline int
dotSignedI16(const std::int16_t *w, const std::int16_t *x,
             std::size_t n)
{
    int acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<int>(w[i]) * static_cast<int>(x[i]);
    return acc;
}

/** w[i] += dir * x[i], clamped to [lo, hi]. With ±1 inputs this is
 *  the perceptron training step over a whole row. */
inline void
trainSignedI16(std::int16_t *w, const std::int16_t *x, std::size_t n,
               int dir, int lo, int hi)
{
    for (std::size_t i = 0; i < n; ++i) {
        int v = static_cast<int>(w[i]) + dir * static_cast<int>(x[i]);
        v = v < lo ? lo : (v > hi ? hi : v);
        w[i] = static_cast<std::int16_t>(v);
    }
}

/** Same kernels, out of line and multiversioned (AVX2 ifunc clone on
 *  hardware that has it) — see the header comment. */
int dotSignedI16Wide(const std::int16_t *w, const std::int16_t *x,
                     std::size_t n);
void trainSignedI16Wide(std::int16_t *w, const std::int16_t *x,
                        std::size_t n, int dir, int lo, int hi);

} // namespace bpsim

#endif // BPSIM_COMMON_VEC_KERNELS_HH

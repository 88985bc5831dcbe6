/**
 * @file
 * Tiny dense kernels for the perceptron's hot loops.
 *
 * The perceptron predict is a dot product of a signed weight row with
 * a ±1 input vector, and training is a saturating add of the scaled
 * input vector into the row. Rows are contiguous int16, so both loops
 * below compile to packed integer code at -O3, which bench/microbench
 * pins with a dedicated BM_PerceptronKernel benchmark. At -O2 GCC 12's
 * very-cheap vectorizer cost model leaves these run-time-length loops
 * scalar, so vec_kernels.cc is built with the -O3 cost model in every
 * build type (src/common/CMakeLists.txt).
 *
 * The ±1 input vector itself comes from expandSignsI16, which copies
 * one 16-byte row of a 256-entry table per eight history bits instead
 * of testing each bit.
 *
 * Saturation note: inputs are ±1 and @p dir is ±1, so a single
 * clamped add per element is a saturating step by one. The
 * perceptron clamps to its weight width: lo = -2^(bits-1),
 * hi = 2^(bits-1) - 1.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

/** kByteSigns[b][i] is +1 when bit i of b is set and -1 otherwise:
 *  the ±1 inputs of eight history bits as one 16-byte row. */
inline constexpr auto kByteSigns = [] {
    std::array<std::array<std::int16_t, 8>, 256> t{};
    for (unsigned b = 0; b < 256; ++b)
        for (unsigned i = 0; i < 8; ++i)
            t[b][i] = (b >> i) & 1 ? 1 : -1;
    return t;
}();

/** x[i] = +1 if bit i of @p words is set, else -1, for i < n (bit i
 *  is bit i % 64 of words[i / 64]). Copies one kByteSigns row per
 *  eight bits, so it writes n rounded up to a multiple of 8 entries:
 *  @p x needs room for them, and the ones past n hold the signs of
 *  the bits above n. */
inline void
expandSignsI16(std::int16_t *x, const std::uint64_t *words,
               std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8) {
        const auto byte =
            static_cast<std::uint8_t>(words[i / 64] >> (i % 64));
        std::memcpy(x + i, kByteSigns[byte].data(),
                    sizeof kByteSigns[byte]);
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

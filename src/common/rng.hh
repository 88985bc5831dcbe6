/**
 * @file
 * Deterministic pseudo-random number generation for workload
 * synthesis.
 *
 * We deliberately avoid std::mt19937 on hot paths: xorshift128+ is
 * several times faster and its statistical quality is more than
 * sufficient for driving synthetic workloads. Determinism matters:
 * the same seed must produce bit-identical traces on every platform
 * so that experiments are reproducible, which is why we do not use
 * std::uniform_int_distribution (its algorithm is
 * implementation-defined).
 */

#ifndef BPSIM_COMMON_RNG_HH
#define BPSIM_COMMON_RNG_HH

#include <cstdint>

namespace bpsim {

/**
 * xorshift128+ generator with convenience distributions.
 *
 * All distribution helpers are implemented from first principles so
 * their output depends only on the seed, never on the C++ standard
 * library implementation.
 */
class Rng
{
  public:
    // The per-draw members are inline: the Tracer and the workload
    // kernels draw several times per generated op.

    /** Construct from a 64-bit seed; any seed (including 0) is valid. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0_;
        const std::uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    nextRange(std::uint64_t bound)
    {
        // Multiply-shift reduction: unbiased enough for workload
        // synthesis and much faster than rejection sampling.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextBetween(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 high bits -> [0,1) double.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial: true with probability @p p. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /**
     * Geometric-ish distribution: number of failures before the
     * first success with success probability @p p, capped at @p cap.
     * Used for dependence-distance and run-length synthesis.
     */
    unsigned nextGeometric(double p, unsigned cap = 64);

    /**
     * Approximate Zipf sample in [0, n) with exponent @p s, via
     * inverse-power transform. Used for address-stream locality and
     * hot-branch working sets.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s = 1.0);

    /** Gaussian sample (Box-Muller), mean 0, stddev 1. */
    double nextGaussian();

  private:
    std::uint64_t s0_;
    std::uint64_t s1_;
    bool haveSpareGaussian_ = false;
    double spareGaussian_ = 0.0;
};

} // namespace bpsim

#endif // BPSIM_COMMON_RNG_HH

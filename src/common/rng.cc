#include "common/rng.hh"

#include <cmath>

namespace bpsim {

namespace {

/** splitmix64: expands one seed word into well-mixed state words. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    s0_ = splitmix64(x);
    s1_ = splitmix64(x);
    if (s0_ == 0 && s1_ == 0)
        s1_ = 1;
}

std::int64_t
Rng::nextBetween(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextRange(span));
}

unsigned
Rng::nextGeometric(double p, unsigned cap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return cap;
    unsigned n = 0;
    while (n < cap && !nextBool(p))
        ++n;
    return n;
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    // Inverse-power transform approximation of a Zipf law: cheap and
    // deterministic; exactness is unnecessary for locality synthesis.
    const double u = nextDouble();
    const double exponent = 1.0 / (1.0 + s);
    const double v = std::pow(u, 1.0 / exponent);
    auto idx = static_cast<std::uint64_t>(v * static_cast<double>(n));
    return idx >= n ? n - 1 : idx;
}

double
Rng::nextGaussian()
{
    if (haveSpareGaussian_) {
        haveSpareGaussian_ = false;
        return spareGaussian_;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spareGaussian_ = v * m;
    haveSpareGaussian_ = true;
    return u * m;
}

} // namespace bpsim

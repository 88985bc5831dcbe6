#include "pipeline/prediction_column.hh"

#include <cstring>

namespace bpsim {

namespace {

std::uint64_t
rotl(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

std::uint64_t
fmix(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
}

} // namespace

Digest128
PredictionColumn::digest() const
{
    // MurmurHash3_x64_128, seed 0, over the packed entries' bytes.
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(entries_.data());
    const std::size_t len = entries_.size() * sizeof(std::uint32_t);
    constexpr std::uint64_t c1 = 0x87c37b91114253d5ull;
    constexpr std::uint64_t c2 = 0x4cf5ad432745937full;
    std::uint64_t h1 = 0, h2 = 0;

    const std::size_t blocks = len / 16;
    for (std::size_t i = 0; i < blocks; ++i) {
        std::uint64_t k1, k2;
        std::memcpy(&k1, bytes + 16 * i, 8);
        std::memcpy(&k2, bytes + 16 * i + 8, 8);
        h1 ^= rotl(k1 * c1, 31) * c2;
        h1 = (rotl(h1, 27) + h2) * 5 + 0x52dce729;
        h2 ^= rotl(k2 * c2, 33) * c1;
        h2 = (rotl(h2, 31) + h1) * 5 + 0x38495ab5;
    }

    // Tail: up to 15 bytes, little-endian into k1 (bytes 0-7) and k2
    // (bytes 8-14).
    const unsigned char *tail = bytes + 16 * blocks;
    const std::size_t rest = len & 15;
    std::uint64_t k1 = 0, k2 = 0;
    for (std::size_t i = rest; i > 8; --i)
        k2 = (k2 << 8) | tail[i - 1];
    for (std::size_t i = rest < 8 ? rest : 8; i > 0; --i)
        k1 = (k1 << 8) | tail[i - 1];
    if (rest > 8)
        h2 ^= rotl(k2 * c2, 33) * c1;
    if (rest > 0)
        h1 ^= rotl(k1 * c1, 31) * c2;

    h1 ^= len;
    h2 ^= len;
    h1 += h2;
    h2 += h1;
    h1 = fmix(h1);
    h2 = fmix(h2);
    h1 += h2;
    h2 += h1;
    return {h1, h2};
}

} // namespace bpsim

#include "trace/trace_io.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace bpsim {

namespace {

constexpr char magic[8] = {'B', 'P', 'S', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t versionColumnar = 3;
/** Common header: magic, version, reserved, record count. */
constexpr std::size_t headerBytes = 24;
/** v3 sections sit at multiples of this (cache-line) alignment. */
constexpr std::size_t v3Align = 64;
/** v3 checksum granularity: one blockHash64 per 64 KiB block. */
constexpr std::size_t v3BlockBytes = 64 * 1024;
/** v3 section count: branchPc, branchTaken, opMeta, opPcDelta,
 *  opExtraDelta, blockSums. */
constexpr std::size_t v3NumSections = 6;
/** v3 directory: branchCount + section table + checksum. */
constexpr std::size_t v3DirOffset = headerBytes;
constexpr std::size_t v3DirPayloadBytes = 8 + v3NumSections * 16;
constexpr std::size_t v3DirEnd =
    v3DirOffset + v3DirPayloadBytes + 8;

constexpr std::size_t
alignUp(std::size_t v, std::size_t a)
{
    return (v + a - 1) / a * a;
}

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
fnv1a64(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Hash for v3 payload blocks: four independent multiply-rotate
 * lanes over little-endian 64-bit words (tail zero-padded, length
 * mixed into lane 0's seed), lanes folded with a final avalanche.
 *
 * FNV-1a is byte-serial — one multiply PER BYTE on the critical
 * path — which made checksum validation the dominant cost of a warm
 * cache load (~130 ms per figure run over a ~124 MB cache
 * directory). Four lanes of word-wide multiplies pipeline to
 * several bytes per cycle with the same corruption-detection power
 * lane, and the fold propagates it through the final value. The
 * tiny directory keeps FNV-1a (negligible size).
 */
std::uint64_t
blockHash64(const std::uint8_t *p, std::size_t n)
{
    constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ull;
    constexpr std::uint64_t k2 = 0xC2B2AE3D27D4EB4Full;
    const auto round = [](std::uint64_t h, std::uint64_t w) {
        h ^= w * k1;
        return (h << 27 | h >> 37) * k2;
    };
    std::uint64_t h[4] = {0x736F6D6570736575ull ^ n,
                          0x646F72616E646F6Dull,
                          0x6C7967656E657261ull,
                          0x7465646279746573ull};
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        for (int l = 0; l < 4; ++l)
            h[l] = round(h[l], getU64(p + i + 8 * l));
    if (i < n) {
        std::uint8_t tail[32] = {};
        std::memcpy(tail, p + i, n - i);
        for (int l = 0; l < 4; ++l)
            h[l] = round(h[l], getU64(tail + 8 * l));
    }
    std::uint64_t r = (h[0] ^ h[1]) * k1 ^ (h[2] ^ h[3]) * k2;
    r ^= r >> 29;
    r *= k1;
    r ^= r >> 32;
    return r;
}

/**
 * A section as the file holds it: little-endian bytes. On a
 * little-endian host that is the column's own memory; elsewhere the
 * values are byte-swapped into @p scratch.
 */
template <typename T>
std::span<const std::uint8_t>
fileBytes(std::span<const T> column, std::vector<std::uint8_t> &scratch)
{
    if constexpr (std::endian::native == std::endian::little) {
        return {reinterpret_cast<const std::uint8_t *>(column.data()),
                column.size_bytes()};
    } else {
        scratch.resize(column.size_bytes());
        for (std::size_t i = 0; i < column.size(); ++i)
            for (std::size_t b = 0; b < sizeof(T); ++b)
                scratch[i * sizeof(T) + b] =
                    static_cast<std::uint8_t>(column[i] >> (8 * b));
        return scratch;
    }
}

/** Read @p n bytes of @p f into @p out; throws on a short read (a
 *  file cut while it is being read). */
void
readBytes(std::FILE *f, void *out, std::size_t n, const std::string &path)
{
    if (n != 0 && std::fread(out, 1, n, f) != n)
        throw TraceIoError("cannot read '" + path + "'");
}

/** Read a column of @p n values of @p T stored little-endian. */
template <typename T>
TraceColumn<T>
readColumn(std::FILE *f, std::size_t n, const std::string &path)
{
    TraceColumn<T> out;
    out.resize(n);
    readBytes(f, out.data(), n * sizeof(T), path);
    if constexpr (std::endian::native != std::endian::little) {
        for (T &v : std::span<T>(out.data(), n)) {
            const auto *b = reinterpret_cast<const std::uint8_t *>(&v);
            T x = 0;
            for (std::size_t i = 0; i < sizeof(T); ++i)
                x |= static_cast<T>(b[i]) << (8 * i);
            v = x;
        }
    }
    return out;
}

/** One v3 section: resolved location inside the file. */
struct V3Section
{
    std::size_t offset = 0;
    std::size_t size = 0;
};

} // namespace

void
writeTraceV3(const TraceBuffer &trace, const std::string &path)
{
    // The trace already holds the five data sections; add the
    // block-sum table and the header, then write it all in one pass.
    const TraceSectionView view = trace.sections();
    std::vector<std::uint8_t> scratch[2];
    const std::span<const std::uint8_t> data[5] = {
        fileBytes(view.branchPc, scratch[0]), view.branchTaken,
        fileBytes(view.opMeta, scratch[1]), view.opPcDelta,
        view.opExtraDelta};
    std::vector<std::uint8_t> blockSums;
    for (const auto &d : data) {
        for (std::size_t pos = 0; pos < d.size(); pos += v3BlockBytes) {
            const std::size_t n = std::min(v3BlockBytes, d.size() - pos);
            std::uint8_t sum[8];
            putU64(sum, blockHash64(d.data() + pos, n));
            blockSums.insert(blockSums.end(), sum, sum + 8);
        }
    }

    std::span<const std::uint8_t> sections[v3NumSections];
    std::size_t offsets[v3NumSections];
    std::size_t cursor = v3DirEnd;
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        sections[i] = i < 5 ? data[i] : std::span<const std::uint8_t>(
                                            blockSums);
        cursor = alignUp(cursor, v3Align);
        offsets[i] = cursor;
        cursor += sections[i].size();
    }

    std::uint8_t head[v3DirEnd] = {};
    std::memcpy(head, magic, 8);
    putU32(head + 8, versionColumnar);
    putU32(head + 12, 0);
    putU64(head + 16, trace.size());
    putU64(head + v3DirOffset, view.branchTaken.size());
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        putU64(head + v3DirOffset + 8 + 16 * i, offsets[i]);
        putU64(head + v3DirOffset + 8 + 16 * i + 8, sections[i].size());
    }
    putU64(head + v3DirOffset + v3DirPayloadBytes,
           fnv1a64(head + v3DirOffset, v3DirPayloadBytes));

    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for writing");
    const auto put = [&](const std::uint8_t *p, std::size_t n) {
        if (n != 0 && std::fwrite(p, 1, n, f.get()) != n)
            throw TraceIoError("short write on records");
    };
    static constexpr std::uint8_t zeros[v3Align] = {};
    put(head, v3DirEnd);
    std::size_t written = v3DirEnd;
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        put(zeros, offsets[i] - written);
        put(sections[i].data(), sections[i].size());
        written = offsets[i] + sections[i].size();
    }
    if (std::fflush(f.get()) != 0)
        throw TraceIoError("short write on records");
}

TraceBuffer
readTrace(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for reading");
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        throw TraceIoError("cannot seek in '" + path + "'");
    const long end = std::ftell(f.get());
    if (end < 0 || std::fseek(f.get(), 0, SEEK_SET) != 0)
        throw TraceIoError("cannot seek in '" + path + "'");
    const auto fileSize = static_cast<std::size_t>(end);

    std::uint8_t p[v3DirEnd];
    if (fileSize < headerBytes)
        throw TraceIoError("truncated header in '" + path + "'");
    readBytes(f.get(), p, std::min(fileSize, v3DirEnd), path);
    if (std::memcmp(p, magic, 8) != 0)
        throw TraceIoError("'" + path + "' is not a bpsim trace");
    if (getU32(p + 8) != versionColumnar)
        throw TraceIoError("unsupported trace version in '" + path +
                           "'");
    if (fileSize < v3DirEnd)
        throw TraceIoError("truncated header in '" + path + "'");
    if (getU32(p + 12) != 0)
        throw TraceIoError("corrupt header in '" + path + "'");
    const std::uint64_t count64 = getU64(p + 16);

    // Directory: checksummed, then cross-checked structurally — the
    // section layout is fully determined by (count, branchCount), so
    // recompute it and demand an exact match, padding included. Any
    // cut or flip lands in a validated field, a checksummed block or
    // a zero-checked pad.
    if (getU64(p + v3DirOffset + v3DirPayloadBytes) !=
        fnv1a64(p + v3DirOffset, v3DirPayloadBytes))
        throw TraceIoError("checksum mismatch in '" + path + "'");
    const std::uint64_t branchCount64 = getU64(p + v3DirOffset);
    if (count64 > fileSize / 4 || branchCount64 > fileSize / 8 ||
        branchCount64 > count64)
        throw TraceIoError("record count in '" + path +
                           "' exceeds file size (corrupt header?)");
    const auto count = static_cast<std::size_t>(count64);
    const auto branchCount = static_cast<std::size_t>(branchCount64);

    V3Section sec[v3NumSections];
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        sec[i].offset = static_cast<std::size_t>(
            getU64(p + v3DirOffset + 8 + 16 * i));
        sec[i].size = static_cast<std::size_t>(
            getU64(p + v3DirOffset + 8 + 16 * i + 8));
    }
    if (sec[0].size != branchCount * 8 ||
        sec[1].size != branchCount || sec[2].size != count * 4)
        throw TraceIoError("corrupt section table in '" + path +
                           "'");
    for (std::size_t i = 3; i <= 4; ++i) {
        if (count == 0 ? sec[i].size != 0 : sec[i].size < count)
            throw TraceIoError("corrupt section table in '" + path +
                               "'");
        if (sec[i].size > fileSize)
            throw TraceIoError("corrupt section table in '" + path +
                               "'");
    }
    std::size_t blocks = 0;
    for (std::size_t i = 0; i < 5; ++i)
        blocks += (sec[i].size + v3BlockBytes - 1) / v3BlockBytes;
    if (sec[5].size != blocks * 8)
        throw TraceIoError("corrupt section table in '" + path +
                           "'");
    std::size_t cursor = v3DirEnd;
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        const std::size_t expect = alignUp(cursor, v3Align);
        // expect > fileSize first: a cut inside the padding must not
        // wrap the subtraction.
        if (sec[i].offset != expect || expect > fileSize ||
            sec[i].size > fileSize - expect)
            throw TraceIoError("corrupt section table in '" + path +
                               "'");
        cursor = expect + sec[i].size;
    }
    if (cursor != fileSize)
        throw TraceIoError("truncated records in '" + path + "'");

    // The layout holds: read each section straight into its column,
    // checking that the padding before it is zero (canonical).
    // Reads the zero padding before the next section and returns
    // that section's size in bytes.
    std::size_t next = 0;
    cursor = v3DirEnd;
    const auto padTo = [&] {
        std::uint8_t pad[v3Align];
        const std::size_t padBytes = sec[next].offset - cursor;
        readBytes(f.get(), pad, padBytes, path);
        for (std::size_t b = 0; b < padBytes; ++b)
            if (pad[b] != 0)
                throw TraceIoError("corrupt padding in '" + path +
                                   "'");
        cursor = sec[next].offset + sec[next].size;
        return sec[next++].size;
    };
    TraceSections s;
    s.branchPc = readColumn<Addr>(f.get(), padTo() / 8, path);
    s.branchTaken = readColumn<std::uint8_t>(f.get(), padTo(), path);
    s.opMeta = readColumn<std::uint32_t>(f.get(), padTo() / 4, path);
    s.opPcDelta = readColumn<std::uint8_t>(f.get(), padTo(), path);
    s.opExtraDelta = readColumn<std::uint8_t>(f.get(), padTo(), path);
    const TraceColumn<std::uint8_t> sums =
        readColumn<std::uint8_t>(f.get(), padTo(), path);

    // Per-block payload checksums, over the bytes as the file held
    // them.
    std::vector<std::uint8_t> scratch[2];
    const std::span<const std::uint8_t> data[5] = {
        fileBytes(s.branchPc.span(), scratch[0]), s.branchTaken.span(),
        fileBytes(s.opMeta.span(), scratch[1]), s.opPcDelta.span(),
        s.opExtraDelta.span()};
    std::size_t sumIdx = 0;
    for (const auto &d : data) {
        for (std::size_t pos = 0; pos < d.size();
             pos += v3BlockBytes, ++sumIdx) {
            const std::size_t n = std::min(v3BlockBytes, d.size() - pos);
            if (blockHash64(d.data() + pos, n) !=
                getU64(sums.data() + 8 * sumIdx))
                throw TraceIoError("checksum mismatch in '" + path +
                                   "'");
        }
    }

    // The taken column feeds bool comparisons; only 0/1 are
    // canonical.
    for (const std::uint8_t t : s.branchTaken.span())
        if (t > 1)
            throw TraceIoError("corrupt record in '" + path + "'");

    return TraceBuffer(std::move(s), path);
}

} // namespace bpsim

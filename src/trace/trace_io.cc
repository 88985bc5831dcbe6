#include "trace/trace_io.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
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

/** Signed delta -> small unsigned value (zigzag). */
std::uint64_t
zigzag(std::uint64_t delta)
{
    const std::int64_t s = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(s) << 1) ^
           static_cast<std::uint64_t>(s >> 63);
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/** Strict LEB128 decode: advances @p pos, throws on truncation or a
 *  varint running past the 10-byte limit of a 64-bit value. */
std::uint64_t
getVarint(const std::uint8_t *p, std::size_t size, std::size_t &pos,
          const std::string &path)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (pos >= size)
            throw TraceIoError("truncated varint in '" + path + "'");
        const std::uint8_t b = p[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    throw TraceIoError("oversized varint in '" + path + "'");
}


/**
 * A whole file read into a u64-backed heap buffer, so the branch pc
 * column stays aligned for in-place reads. Immutable once read, so a
 * backing holding it is shareable across threads.
 */
struct FileImage
{
    std::vector<std::uint64_t> words;
    std::size_t size = 0;

    const std::uint8_t *
    data() const
    {
        return reinterpret_cast<const std::uint8_t *>(words.data());
    }
};

FileImage
readFileImage(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for reading");
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        throw TraceIoError("cannot seek in '" + path + "'");
    const long end = std::ftell(f.get());
    if (end < 0 || std::fseek(f.get(), 0, SEEK_SET) != 0)
        throw TraceIoError("cannot seek in '" + path + "'");
    FileImage image;
    image.size = static_cast<std::size_t>(end);
    image.words.resize((image.size + 7) / 8);
    if (image.size != 0 &&
        std::fread(image.words.data(), 1, image.size, f.get()) !=
            image.size)
        throw TraceIoError("cannot read '" + path + "'");
    return image;
}

/** Pack one op's non-delta fields into the 4 opMeta bytes. */
void
packOpMeta(const MicroOp &op, std::uint8_t out[4])
{
    const auto cls = static_cast<std::uint8_t>(op.cls);
    const std::uint8_t srcA = op.srcA & 0x3f;
    const std::uint8_t srcB = op.srcB & 0x7f;
    out[0] = static_cast<std::uint8_t>((cls & 0x07) |
                                       (op.taken ? 0x08 : 0) |
                                       ((op.dst & 0x0f) << 4));
    out[1] = static_cast<std::uint8_t>(((op.dst >> 4) & 0x0f) |
                                       ((srcA & 0x0f) << 4));
    out[2] = static_cast<std::uint8_t>(((srcA >> 4) & 0x03) |
                                       ((srcB & 0x3f) << 2));
    out[3] = static_cast<std::uint8_t>((srcB >> 6) & 0x01);
}

/** Unpack 4 meta bytes; throws on non-canonical spare bits. */
MicroOp
unpackOpMeta(const std::uint8_t *b, const std::string &path)
{
    MicroOp op;
    const std::uint8_t cls = b[0] & 0x07;
    if (cls > static_cast<std::uint8_t>(InstClass::UncondBranch) ||
        (b[3] & 0xfe) != 0)
        throw TraceIoError("corrupt record in '" + path + "'");
    op.cls = static_cast<InstClass>(cls);
    op.taken = (b[0] >> 3) & 1;
    op.dst = static_cast<std::uint8_t>((b[0] >> 4) |
                                       ((b[1] & 0x0f) << 4));
    op.srcA =
        static_cast<std::uint8_t>((b[1] >> 4) | ((b[2] & 0x03) << 4));
    op.srcB = static_cast<std::uint8_t>(((b[2] >> 2) & 0x3f) |
                                        ((b[3] & 0x01) << 6));
    return op;
}

/** One v3 section: resolved location inside the file bytes. */
struct V3Section
{
    std::size_t offset = 0;
    std::size_t size = 0;
};

/** v3 backing: serves branch columns in place from the file image
 *  and decodes the op stream once, on the first ops() call. */
class V3Backing final : public TraceBacking
{
  public:
    V3Backing(FileImage image, std::string path, std::size_t op_count,
              std::size_t branch_count,
              const V3Section (&sec)[v3NumSections])
        : image_(std::move(image)),
          path_(std::move(path)),
          opCount_(op_count),
          branchCount_(branch_count)
    {
        for (std::size_t i = 0; i < v3NumSections; ++i)
            sec_[i] = sec[i];
    }

    const Addr *
    branchPc() const override
    {
        return reinterpret_cast<const Addr *>(image_.data() +
                                              sec_[0].offset);
    }
    const std::uint8_t *
    branchTaken() const override
    {
        return image_.data() + sec_[1].offset;
    }
    std::size_t branchCount() const override { return branchCount_; }
    std::size_t opCount() const override { return opCount_; }

    const std::vector<MicroOp> &
    ops() const override
    {
        // The image never changes, so a failed decode would fail
        // again: keep its error rather than decoding per call.
        std::call_once(decodeOnce_, [this] {
            try {
                ops_ = decode();
                decoded_.store(true, std::memory_order_release);
            } catch (...) {
                decodeError_ = std::current_exception();
            }
        });
        if (decodeError_)
            std::rethrow_exception(decodeError_);
        return ops_;
    }
    bool
    opsDecoded() const override
    {
        return decoded_.load(std::memory_order_acquire);
    }
    std::size_t
    condBranchesIn(std::size_t ops) const override
    {
        // The class is the low three bits of each op's first meta
        // byte (packOpMeta).
        const std::uint8_t *meta = image_.data() + sec_[2].offset;
        const auto cond =
            static_cast<std::uint8_t>(InstClass::CondBranch);
        std::size_t n = 0;
        for (std::size_t r = 0; r < ops; ++r)
            n += (meta[4 * r] & 0x07) == cond;
        return n;
    }

  private:
    std::vector<MicroOp>
    decode() const
    {
        std::vector<MicroOp> ops;
        ops.reserve(opCount_);
        const std::uint8_t *meta = image_.data() + sec_[2].offset;
        const std::uint8_t *pcs = image_.data() + sec_[3].offset;
        const std::uint8_t *extras = image_.data() + sec_[4].offset;
        std::size_t pcPos = 0, extraPos = 0;
        std::uint64_t prevPc = 0;
        std::uint64_t prevExtra[6] = {};
        for (std::size_t r = 0; r < opCount_; ++r) {
            MicroOp op = unpackOpMeta(meta + 4 * r, path_);
            const auto cls = static_cast<std::uint8_t>(op.cls);
            op.pc = prevPc + unzigzag(getVarint(pcs, sec_[3].size,
                                                pcPos, path_));
            op.extra =
                prevExtra[cls] +
                unzigzag(getVarint(extras, sec_[4].size, extraPos,
                                   path_));
            prevPc = op.pc;
            prevExtra[cls] = op.extra;
            ops.push_back(op);
        }
        if (pcPos != sec_[3].size || extraPos != sec_[4].size)
            throw TraceIoError("trailing garbage in '" + path_ +
                               "'");
        return ops;
    }

    FileImage image_;
    std::string path_;
    std::size_t opCount_;
    std::size_t branchCount_;
    V3Section sec_[v3NumSections];
    mutable std::once_flag decodeOnce_;
    mutable std::atomic<bool> decoded_{false};
    mutable std::vector<MicroOp> ops_;
    mutable std::exception_ptr decodeError_;
};

} // namespace

void
writeTraceV3(const TraceBuffer &trace, const std::string &path)
{
    // Build the five data sections in memory, then the block-sum
    // table, then assemble the (deterministic, canonical) file image
    // and write it in one go.
    std::vector<std::uint8_t> branchPc, branchTaken, opMeta, opPc,
        opExtra;
    opMeta.reserve(trace.size() * 4);
    std::uint64_t prevPc = 0;
    std::uint64_t prevExtra[6] = {};
    for (const MicroOp &op : trace) {
        std::uint8_t meta[4];
        packOpMeta(op, meta);
        opMeta.insert(opMeta.end(), meta, meta + 4);
        putVarint(opPc, zigzag(op.pc - prevPc));
        const auto cls = static_cast<std::uint8_t>(op.cls);
        putVarint(opExtra, zigzag(op.extra - prevExtra[cls]));
        prevPc = op.pc;
        prevExtra[cls] = op.extra;
        if (op.cls == InstClass::CondBranch) {
            std::uint8_t pc[8];
            putU64(pc, op.pc);
            branchPc.insert(branchPc.end(), pc, pc + 8);
            branchTaken.push_back(op.taken ? 1 : 0);
        }
    }

    const std::vector<std::uint8_t> *data[5] = {
        &branchPc, &branchTaken, &opMeta, &opPc, &opExtra};
    std::vector<std::uint8_t> blockSums;
    for (const auto *d : data) {
        for (std::size_t pos = 0; pos < d->size();
             pos += v3BlockBytes) {
            const std::size_t n =
                std::min(v3BlockBytes, d->size() - pos);
            std::uint8_t sum[8];
            putU64(sum, blockHash64(d->data() + pos, n));
            blockSums.insert(blockSums.end(), sum, sum + 8);
        }
    }

    std::size_t offsets[v3NumSections];
    std::size_t sizes[v3NumSections];
    std::size_t cursor = v3DirEnd;
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        sizes[i] = i < 5 ? data[i]->size() : blockSums.size();
        cursor = alignUp(cursor, v3Align);
        offsets[i] = cursor;
        cursor += sizes[i];
    }

    std::vector<std::uint8_t> file(cursor, 0);
    std::memcpy(file.data(), magic, 8);
    putU32(file.data() + 8, versionColumnar);
    putU32(file.data() + 12, 0);
    putU64(file.data() + 16, trace.size());
    putU64(file.data() + v3DirOffset, branchTaken.size());
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        putU64(file.data() + v3DirOffset + 8 + 16 * i, offsets[i]);
        putU64(file.data() + v3DirOffset + 8 + 16 * i + 8, sizes[i]);
    }
    putU64(file.data() + v3DirOffset + v3DirPayloadBytes,
           fnv1a64(file.data() + v3DirOffset, v3DirPayloadBytes));
    // An empty section's vector may hold no buffer at all, and
    // memcpy's source must not be null even for zero bytes.
    for (std::size_t i = 0; i < 5; ++i)
        if (sizes[i] != 0)
            std::memcpy(file.data() + offsets[i], data[i]->data(),
                        sizes[i]);
    if (sizes[5] != 0)
        std::memcpy(file.data() + offsets[5], blockSums.data(),
                    sizes[5]);

    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for writing");
    if (!file.empty() &&
        std::fwrite(file.data(), 1, file.size(), f.get()) !=
            file.size())
        throw TraceIoError("short write on records");
}

TraceBuffer
readTrace(const std::string &path)
{
    FileImage image = readFileImage(path);
    const std::uint8_t *p = image.data();
    const std::size_t fileSize = image.size;
    if (fileSize < headerBytes)
        throw TraceIoError("truncated header in '" + path + "'");
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
        // wrap the subtraction and send the pad check past the end.
        if (sec[i].offset != expect || expect > fileSize ||
            sec[i].size > fileSize - expect)
            throw TraceIoError("corrupt section table in '" + path +
                               "'");
        // Canonical padding: the bytes between sections are zero.
        for (std::size_t b = cursor; b < expect; ++b)
            if (p[b] != 0)
                throw TraceIoError("corrupt padding in '" + path +
                                   "'");
        cursor = expect + sec[i].size;
    }
    if (cursor != fileSize)
        throw TraceIoError("truncated records in '" + path + "'");

    // Per-block payload checksums.
    const std::uint8_t *sums = p + sec[5].offset;
    std::size_t sumIdx = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t pos = 0; pos < sec[i].size;
             pos += v3BlockBytes, ++sumIdx) {
            const std::size_t n =
                std::min(v3BlockBytes, sec[i].size - pos);
            if (blockHash64(p + sec[i].offset + pos, n) !=
                getU64(sums + 8 * sumIdx))
                throw TraceIoError("checksum mismatch in '" + path +
                                   "'");
        }
    }

    // The taken column feeds bool comparisons; only 0/1 are
    // canonical.
    const std::uint8_t *taken = p + sec[1].offset;
    for (std::size_t i = 0; i < branchCount; ++i)
        if (taken[i] > 1)
            throw TraceIoError("corrupt record in '" + path + "'");

    auto backing = std::make_shared<const V3Backing>(
        std::move(image), path, count, branchCount, sec);
    if constexpr (std::endian::native == std::endian::little) {
        return TraceBuffer(std::move(backing));
    } else {
        // Big-endian host: the raw u64 pc column cannot be served in
        // place; decode everything eagerly instead.
        TraceBuffer trace;
        trace.reserve(count);
        for (const MicroOp &op : backing->ops())
            trace.push(op);
        return trace;
    }
}

} // namespace bpsim

#include "trace/trace_io.hh"

#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace bpsim {

namespace {

constexpr char magic[8] = {'B', 'P', 'S', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t version = 1;
constexpr std::uint32_t versionCompressed = 2;
constexpr std::uint32_t versionColumnar = 3;
constexpr std::size_t recordBytes = 20;
/** v3 sections sit at multiples of this (cache-line) alignment. */
constexpr std::size_t v3Align = 64;
/** v3 checksum granularity: one FNV-1a-64 per 64 KiB block. */
constexpr std::size_t v3BlockBytes = 64 * 1024;
/** v3 section count: branchPc, branchTaken, opMeta, opPcDelta,
 *  opExtraDelta, blockSums. */
constexpr std::size_t v3NumSections = 6;
/** v3 directory: branchCount + section table + checksum. */
constexpr std::size_t v3DirOffset = 24;
constexpr std::size_t v3DirPayloadBytes = 8 + v3NumSections * 16;
constexpr std::size_t v3DirEnd =
    v3DirOffset + v3DirPayloadBytes + 8;

constexpr std::size_t
alignUp(std::size_t v, std::size_t a)
{
    return (v + a - 1) / a * a;
}
/** v2: 4 packed bytes + at least 1 byte per varint. */
constexpr std::size_t minCompressedRecordBytes = 6;
constexpr std::size_t checksumBytes = 8;

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
 * for this purpose: any flipped or truncated byte perturbs its
 * lane, and the fold propagates it through the final value. v2
 * payloads and the tiny v3 directory keep FNV-1a (compatibility and
 * negligible size, respectively).
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

} // namespace

void
writeTrace(const TraceBuffer &trace, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for writing");

    std::uint8_t header[24];
    std::memcpy(header, magic, 8);
    putU32(header + 8, version);
    putU32(header + 12, 0);
    putU64(header + 16, trace.size());
    if (std::fwrite(header, 1, sizeof(header), f.get()) !=
        sizeof(header))
        throw TraceIoError("short write on header");

    // Buffered record writes, 4K records at a time.
    std::vector<std::uint8_t> buf;
    buf.reserve(4096 * recordBytes);
    auto flush = [&] {
        if (buf.empty())
            return;
        if (std::fwrite(buf.data(), 1, buf.size(), f.get()) !=
            buf.size())
            throw TraceIoError("short write on records");
        buf.clear();
    };

    for (const MicroOp &op : trace) {
        std::uint8_t rec[recordBytes];
        putU64(rec, op.pc);
        putU64(rec + 8, op.extra);
        rec[16] = static_cast<std::uint8_t>(op.cls);
        rec[17] = op.taken ? 1 : 0;
        rec[18] = op.dst;
        // srcA/srcB are 6-bit register ids: pack both in one byte
        // plus the low bits of 17.
        rec[19] = static_cast<std::uint8_t>(op.srcA & 0x3f);
        rec[17] |= static_cast<std::uint8_t>((op.srcB & 0x3f) << 1);
        rec[19] |= static_cast<std::uint8_t>((op.srcB & 0x40) << 1);
        buf.insert(buf.end(), rec, rec + recordBytes);
        if (buf.size() >= 4096 * recordBytes)
            flush();
    }
    flush();
}

void
writeTraceCompressed(const TraceBuffer &trace, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for writing");

    std::uint8_t header[24];
    std::memcpy(header, magic, 8);
    putU32(header + 8, versionCompressed);
    putU32(header + 12, 0);
    putU64(header + 16, trace.size());
    if (std::fwrite(header, 1, sizeof(header), f.get()) !=
        sizeof(header))
        throw TraceIoError("short write on header");

    std::vector<std::uint8_t> payload;
    payload.reserve(trace.size() * minCompressedRecordBytes +
                    checksumBytes);

    std::uint64_t prevPc = 0;
    std::uint64_t prevExtra[6] = {};
    for (const MicroOp &op : trace) {
        const auto cls = static_cast<std::uint8_t>(op.cls);
        // Same field domain as v1: srcA is 6 bits, srcB 7 bits.
        const std::uint8_t srcA = op.srcA & 0x3f;
        const std::uint8_t srcB = op.srcB & 0x7f;
        const std::uint8_t b0 = static_cast<std::uint8_t>(
            (cls & 0x07) | (op.taken ? 0x08 : 0) |
            ((op.dst & 0x0f) << 4));
        const std::uint8_t b1 = static_cast<std::uint8_t>(
            ((op.dst >> 4) & 0x0f) | ((srcA & 0x0f) << 4));
        const std::uint8_t b2 = static_cast<std::uint8_t>(
            ((srcA >> 4) & 0x03) | ((srcB & 0x3f) << 2));
        const std::uint8_t b3 =
            static_cast<std::uint8_t>((srcB >> 6) & 0x01);
        payload.push_back(b0);
        payload.push_back(b1);
        payload.push_back(b2);
        payload.push_back(b3);
        putVarint(payload, zigzag(op.pc - prevPc));
        putVarint(payload, zigzag(op.extra - prevExtra[cls]));
        prevPc = op.pc;
        prevExtra[cls] = op.extra;
    }

    std::uint8_t sum[checksumBytes];
    putU64(sum, fnv1a64(payload.data(), payload.size()));
    payload.insert(payload.end(), sum, sum + checksumBytes);

    if (!payload.empty() &&
        std::fwrite(payload.data(), 1, payload.size(), f.get()) !=
            payload.size())
        throw TraceIoError("short write on records");
}

namespace {

TraceBuffer
readTraceCompressed(std::FILE *f, const std::string &path,
                    std::uint64_t count)
{
    if (std::fseek(f, 0, SEEK_END) != 0)
        throw TraceIoError("cannot seek in '" + path + "'");
    const long end = std::ftell(f);
    if (end < 0 || static_cast<std::uint64_t>(end) < 24 + checksumBytes)
        throw TraceIoError("truncated records in '" + path + "'");
    const std::size_t payloadSize =
        static_cast<std::size_t>(end) - 24 - checksumBytes;
    // Sanity-check the declared count against the smallest possible
    // record before reserving (see the v1 comment below).
    if (count > payloadSize / minCompressedRecordBytes)
        throw TraceIoError("record count in '" + path +
                           "' exceeds file size (corrupt header?)");
    if (std::fseek(f, 24, SEEK_SET) != 0)
        throw TraceIoError("cannot seek in '" + path + "'");

    std::vector<std::uint8_t> payload(payloadSize + checksumBytes);
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), f) !=
            payload.size())
        throw TraceIoError("truncated records in '" + path + "'");
    const std::uint64_t want = getU64(payload.data() + payloadSize);
    if (fnv1a64(payload.data(), payloadSize) != want)
        throw TraceIoError("checksum mismatch in '" + path + "'");

    TraceBuffer trace;
    trace.reserve(count);
    std::uint64_t prevPc = 0;
    std::uint64_t prevExtra[6] = {};
    std::size_t pos = 0;
    for (std::uint64_t r = 0; r < count; ++r) {
        if (pos + 4 > payloadSize)
            throw TraceIoError("truncated records in '" + path + "'");
        const std::uint8_t b0 = payload[pos];
        const std::uint8_t b1 = payload[pos + 1];
        const std::uint8_t b2 = payload[pos + 2];
        const std::uint8_t b3 = payload[pos + 3];
        pos += 4;
        MicroOp op;
        const std::uint8_t cls = b0 & 0x07;
        if (cls > static_cast<std::uint8_t>(InstClass::UncondBranch) ||
            (b3 & 0xfe) != 0)
            throw TraceIoError("corrupt record in '" + path + "'");
        op.cls = static_cast<InstClass>(cls);
        op.taken = (b0 >> 3) & 1;
        op.dst = static_cast<std::uint8_t>((b0 >> 4) |
                                           ((b1 & 0x0f) << 4));
        op.srcA =
            static_cast<std::uint8_t>((b1 >> 4) | ((b2 & 0x03) << 4));
        op.srcB = static_cast<std::uint8_t>(((b2 >> 2) & 0x3f) |
                                            ((b3 & 0x01) << 6));
        op.pc = prevPc + unzigzag(getVarint(payload.data(),
                                            payloadSize, pos, path));
        op.extra =
            prevExtra[cls] + unzigzag(getVarint(payload.data(),
                                                payloadSize, pos,
                                                path));
        prevPc = op.pc;
        prevExtra[cls] = op.extra;
        trace.push(op);
    }
    if (pos != payloadSize)
        throw TraceIoError("trailing garbage in '" + path + "'");
    return trace;
}

} // namespace

// ---------------------------------------------------------------
// v3 columnar format

namespace {

/**
 * Read-only bytes of a whole file. Memory-mapped when requested and
 * the platform allows (the zero-copy path); read into an
 * 8-byte-aligned heap buffer otherwise. Immutable after open(), so
 * shareable across threads. Callers in shared directories must pass
 * allow_mmap = false: the heap path turns a concurrent in-place
 * truncation into a short read (a clean TraceIoError), where a
 * mapping would SIGBUS.
 */
class FileBytes
{
  public:
    static std::shared_ptr<const FileBytes>
    open(const std::string &path, bool allow_mmap)
    {
        auto fb = std::make_shared<FileBytes>();
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            throw TraceIoError("cannot open '" + path +
                               "' for reading");
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            throw TraceIoError("cannot stat '" + path + "'");
        }
        fb->size_ = static_cast<std::size_t>(st.st_size);
        if (fb->size_ > 0) {
            void *m = allow_mmap
                          ? ::mmap(nullptr, fb->size_, PROT_READ,
                                   MAP_PRIVATE, fd, 0)
                          : MAP_FAILED;
            if (m != MAP_FAILED) {
                fb->map_ = static_cast<const std::uint8_t *>(m);
                fb->mapLen_ = fb->size_;
            } else {
                // Heap fallback, u64-backed so the branch pc column
                // stays suitably aligned for in-place reads.
                fb->heap_.resize((fb->size_ + 7) / 8);
                std::size_t done = 0;
                auto *dst =
                    reinterpret_cast<std::uint8_t *>(fb->heap_.data());
                while (done < fb->size_) {
                    const ssize_t n =
                        ::pread(fd, dst + done, fb->size_ - done,
                                static_cast<off_t>(done));
                    if (n <= 0) {
                        ::close(fd);
                        throw TraceIoError("cannot read '" + path +
                                           "'");
                    }
                    done += static_cast<std::size_t>(n);
                }
            }
        }
        ::close(fd);
        return fb;
    }

    ~FileBytes()
    {
        if (map_)
            ::munmap(const_cast<std::uint8_t *>(map_), mapLen_);
    }

    FileBytes() = default;
    FileBytes(const FileBytes &) = delete;
    FileBytes &operator=(const FileBytes &) = delete;

    const std::uint8_t *
    data() const
    {
        return map_ ? map_
                    : reinterpret_cast<const std::uint8_t *>(
                          heap_.data());
    }
    std::size_t size() const { return size_; }

  private:
    const std::uint8_t *map_ = nullptr;
    std::size_t mapLen_ = 0;
    std::vector<std::uint64_t> heap_;
    std::size_t size_ = 0;
};

/** Pack one op's non-delta fields into v2/v3's 4 meta bytes. */
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

/** v3 backing: serves branch columns in place and decodes the op
 *  stream on demand (TraceBuffer materialization). */
class V3Backing final : public TraceBacking
{
  public:
    V3Backing(std::shared_ptr<const FileBytes> bytes,
              std::string path, std::size_t op_count,
              std::size_t branch_count,
              const V3Section (&sec)[v3NumSections])
        : bytes_(std::move(bytes)),
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
        return reinterpret_cast<const Addr *>(bytes_->data() +
                                              sec_[0].offset);
    }
    const std::uint8_t *
    branchTaken() const override
    {
        return bytes_->data() + sec_[1].offset;
    }
    std::size_t branchCount() const override { return branchCount_; }
    std::size_t opCount() const override { return opCount_; }

    std::vector<MicroOp>
    decodeOps() const override
    {
        std::vector<MicroOp> ops;
        ops.reserve(opCount_);
        const std::uint8_t *meta = bytes_->data() + sec_[2].offset;
        const std::uint8_t *pcs = bytes_->data() + sec_[3].offset;
        const std::uint8_t *extras = bytes_->data() + sec_[4].offset;
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

  private:
    std::shared_ptr<const FileBytes> bytes_;
    std::string path_;
    std::size_t opCount_;
    std::size_t branchCount_;
    V3Section sec_[v3NumSections];
};

TraceBuffer
readTraceV3(const std::string &path, bool allow_mmap)
{
    auto bytes = FileBytes::open(path, allow_mmap);
    const std::uint8_t *p = bytes->data();
    const std::size_t fileSize = bytes->size();
    if (fileSize < v3DirEnd)
        throw TraceIoError("truncated header in '" + path + "'");
    if (std::memcmp(p, magic, 8) != 0)
        throw TraceIoError("'" + path + "' is not a bpsim trace");
    if (getU32(p + 8) != versionColumnar)
        throw TraceIoError("unsupported trace version in '" + path +
                           "'");
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
        if (sec[i].offset != expect ||
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
        bytes, path, count, branchCount, sec);
    TraceBuffer trace;
    if constexpr (std::endian::native == std::endian::little) {
        trace.adoptBacking(std::move(backing));
    } else {
        // Big-endian host: the raw u64 pc column cannot be served in
        // place; decode everything eagerly instead.
        trace.reserve(count);
        for (const MicroOp &op : backing->decodeOps())
            trace.push(op);
    }
    return trace;
}

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
readTrace(const std::string &path, TraceReadMode mode)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for reading");

    std::uint8_t header[24];
    if (std::fread(header, 1, sizeof(header), f.get()) !=
        sizeof(header))
        throw TraceIoError("truncated header in '" + path + "'");
    if (std::memcmp(header, magic, 8) != 0)
        throw TraceIoError("'" + path + "' is not a bpsim trace");
    const std::uint32_t ver = getU32(header + 8);
    const std::uint64_t count = getU64(header + 16);
    if (ver == versionCompressed)
        return readTraceCompressed(f.get(), path, count);
    if (ver == versionColumnar) {
        f.reset(); // re-opened (and possibly mapped) by the v3 loader
        return readTraceV3(path,
                           mode == TraceReadMode::ZeroCopy);
    }
    if (ver != version)
        throw TraceIoError("unsupported trace version in '" + path +
                           "'");

    // Validate the declared count against the actual file size
    // before reserving: a corrupt count field must produce a clean
    // TraceIoError, not a multi-gigabyte allocation.
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        throw TraceIoError("cannot seek in '" + path + "'");
    const long end = std::ftell(f.get());
    if (end < 0)
        throw TraceIoError("cannot seek in '" + path + "'");
    const std::uint64_t payload =
        static_cast<std::uint64_t>(end) - sizeof(header);
    if (count > payload / recordBytes)
        throw TraceIoError(
            "record count in '" + path +
            "' exceeds file size (corrupt header?)");
    if (std::fseek(f.get(), sizeof(header), SEEK_SET) != 0)
        throw TraceIoError("cannot seek in '" + path + "'");

    TraceBuffer trace;
    trace.reserve(count);
    std::vector<std::uint8_t> buf(4096 * recordBytes);
    std::uint64_t remaining = count;
    while (remaining > 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, 4096));
        const std::size_t got = std::fread(
            buf.data(), recordBytes, want, f.get());
        if (got == 0)
            throw TraceIoError("truncated records in '" + path + "'");
        for (std::size_t r = 0; r < got; ++r) {
            const std::uint8_t *rec = buf.data() + r * recordBytes;
            MicroOp op;
            op.pc = getU64(rec);
            op.extra = getU64(rec + 8);
            op.cls = static_cast<InstClass>(rec[16]);
            if (rec[16] > static_cast<std::uint8_t>(
                              InstClass::UncondBranch))
                throw TraceIoError("corrupt record in '" + path + "'");
            op.taken = rec[17] & 1;
            op.dst = rec[18];
            op.srcA = rec[19] & 0x3f;
            op.srcB = static_cast<std::uint8_t>(
                ((rec[17] >> 1) & 0x3f) | ((rec[19] >> 1) & 0x40));
            trace.push(op);
        }
        remaining -= got;
    }
    return trace;
}

} // namespace bpsim

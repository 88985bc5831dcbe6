/** @file Tests for v3 trace file round-tripping and reader
 *  hardening against truncated, corrupted or foreign files. */

#include "trace/trace_io.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "robust/trace_fault.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

/** Field-by-field equality with gtest context on the failing op. */
void
expectTracesEqual(const TraceBuffer &a, const TraceBuffer &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc) << "op " << i;
        ASSERT_EQ(a[i].extra, b[i].extra) << "op " << i;
        ASSERT_EQ(a[i].cls, b[i].cls) << "op " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "op " << i;
        ASSERT_EQ(a[i].dst, b[i].dst) << "op " << i;
        ASSERT_EQ(a[i].srcA, b[i].srcA) << "op " << i;
        ASSERT_EQ(a[i].srcB, b[i].srcB) << "op " << i;
    }
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/** Overwrite @p n bytes of @p path at @p offset. */
void
patchFile(const std::string &path, long offset,
          const std::uint8_t *bytes, std::size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(0, std::fseek(f, offset, SEEK_SET));
    ASSERT_EQ(n, std::fwrite(bytes, 1, n, f));
    std::fclose(f);
}

/** The TraceIoError message readTrace(@p path) throws, or "" if it
 *  returns. */
std::string
readError(const std::string &path)
{
    try {
        readTrace(path);
    } catch (const TraceIoError &e) {
        return e.what();
    }
    return "";
}

TEST(TraceIo, RoundTripsBitIdentically)
{
    const auto w = makeWorkload("186.crafty");
    const TraceBuffer original = generateTrace(*w, 40000, 7);
    const std::string path = tempPath("crafty_v3.bpt");
    const std::string path2 = tempPath("crafty_v3b.bpt");

    writeTraceV3(original, path);
    const TraceBuffer loaded = readTrace(path);
    expectTracesEqual(original, loaded);
    EXPECT_EQ(loaded.condBranches(), original.condBranches());

    // Canonical encoding: re-encoding the decoded trace reproduces
    // the file byte for byte (the racing-writers guarantee in
    // trace_cache rests on this).
    writeTraceV3(loaded, path2);
    EXPECT_EQ(slurp(path), slurp(path2));
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const std::string path = tempPath("empty_v3.bpt");
    writeTraceV3(TraceBuffer{}, path);
    const TraceBuffer loaded = readTrace(path);
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(loaded.condBranches(), 0u);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows)
{
    EXPECT_THROW(readTrace("/nonexistent/dir/trace.bpt"),
                 TraceIoError);
}

TEST(TraceIo, RejectsForeignFiles)
{
    const std::string path = tempPath("garbage.bpt");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace file at all, not even close",
               f);
    std::fclose(f);
    EXPECT_NE(readError(path).find("is not a bpsim trace"),
              std::string::npos);

    // A v3 file with its magic broken is foreign too.
    const auto w = makeWorkload("254.gap");
    writeTraceV3(generateTrace(*w, 200, 1), path);
    const std::uint8_t notMagic[1] = {'X'};
    patchFile(path, 0, notMagic, 1);
    EXPECT_NE(readError(path).find("is not a bpsim trace"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsOtherVersions)
{
    // Only v3 is read. Files of the retired raw (1) and compressed
    // (2) formats, or of a future version, fail cleanly.
    const auto w = makeWorkload("254.gap");
    const TraceBuffer original = generateTrace(*w, 200, 1);
    const std::string path = tempPath("otherver.bpt");
    for (const std::uint8_t ver : {1, 2, 4, 99}) {
        writeTraceV3(original, path);
        const std::uint8_t field[4] = {ver, 0, 0, 0};
        patchFile(path, 8, field, sizeof(field));
        EXPECT_NE(readError(path).find("unsupported trace version"),
                  std::string::npos)
            << "version " << int(ver);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncatedRecords)
{
    const auto w = makeWorkload("254.gap");
    const TraceBuffer original = generateTrace(*w, 1000, 1);
    const std::string path = tempPath("trunc.bpt");
    writeTraceV3(original, path);

    // Chop the file in half (keeping header and directory).
    const long size = static_cast<long>(slurp(path).size());
    ASSERT_GT(size / 2, 192);
    ASSERT_EQ(0, truncate(path.c_str(), size / 2));

    EXPECT_THROW(readTrace(path), TraceIoError);
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsOversizedRecordCount)
{
    // A corrupt header count (outside the directory checksum) must be
    // a clean TraceIoError from the count > fileSize/4 check, not a
    // multi-gigabyte reserve.
    const auto w = makeWorkload("254.gap");
    const TraceBuffer original = generateTrace(*w, 200, 1);
    const std::string path = tempPath("hugecount.bpt");
    writeTraceV3(original, path);

    const std::uint8_t huge[8] = {0xff, 0xff, 0xff, 0xff,
                                  0xff, 0xff, 0xff, 0x7f};
    patchFile(path, 16, huge, sizeof(huge));
    EXPECT_NE(readError(path).find("exceeds file size"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, ServesBranchViewWithoutDecodingOps)
{
    // The whole point of v3: accuracy replay walks branchView()
    // straight out of the file image, never decoding the op stream.
    const auto w = makeWorkload("164.gzip");
    const TraceBuffer original = generateTrace(*w, 20000, 3);
    const std::string path = tempPath("zerocopy_v3.bpt");
    writeTraceV3(original, path);

    const TraceBuffer loaded = readTrace(path);
    EXPECT_FALSE(loaded.opsMaterialized());
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.condBranches(), original.condBranches());

    const BranchSpan a = original.branchView();
    const BranchSpan b = loaded.branchView();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.pc(i), b.pc(i)) << "branch " << i;
        ASSERT_EQ(a.taken(i), b.taken(i)) << "branch " << i;
    }
    // Replaying the branch columns must not have forced a decode.
    EXPECT_FALSE(loaded.opsMaterialized());

    // First op access decodes lazily, and correctly.
    EXPECT_EQ(loaded[0].pc, original[0].pc);
    EXPECT_TRUE(loaded.opsMaterialized());
    std::remove(path.c_str());
}

TEST(TraceIo, CopiesOfALoadedTraceShareOneDecode)
{
    // The op stream is decoded inside the storage every copy shares:
    // decoding through a copy decodes the original too, and both
    // then read the same columns.
    const auto w = makeWorkload("164.gzip");
    const TraceBuffer original = generateTrace(*w, 2000, 5);
    const std::string path = tempPath("shared_decode_v3.bpt");
    writeTraceV3(original, path);

    const TraceBuffer loaded = readTrace(path);
    const TraceBuffer copy = loaded;
    ASSERT_FALSE(loaded.opsMaterialized());
    ASSERT_FALSE(copy.opsMaterialized());

    expectTracesEqual(original, copy);
    EXPECT_TRUE(copy.opsMaterialized());
    EXPECT_TRUE(loaded.opsMaterialized());
    EXPECT_EQ(loaded.opColumns().pc, copy.opColumns().pc);
    EXPECT_EQ(loaded.opColumns().extra, copy.opColumns().extra);
    std::remove(path.c_str());
}

TEST(TraceBuffer, ReadsBackEveryPushedOp)
{
    // Ops of every class with pcs and extras that jump both ways and
    // by every magnitude: what operator[], iteration and the timing
    // columns return must be exactly what was pushed (the encoder
    // and the decode must agree on each class's extra baseline), and
    // must survive a file round trip.
    Rng rng(0x7e57);
    std::vector<MicroOp> pushed;
    TraceBuffer trace;
    Addr pc = 0x400000;
    for (int i = 0; i < 5000; ++i) {
        MicroOp op;
        op.cls = static_cast<InstClass>(rng.nextRange(6));
        pc += static_cast<Addr>(static_cast<std::int64_t>(
                  rng.nextRange(1u << 12)) - 2048)
              << rng.nextRange(40);
        op.pc = pc;
        op.extra = rng.nextRange(4) == 0 ? 0
                                          : rng.next() >> rng.nextRange(64);
        op.taken = rng.nextRange(2) != 0;
        op.dst = static_cast<std::uint8_t>(rng.nextRange(64));
        op.srcA = static_cast<std::uint8_t>(rng.nextRange(64));
        op.srcB = static_cast<std::uint8_t>(rng.nextRange(64));
        pushed.push_back(op);
        trace.push(op);
    }
    const auto expectPushed = [&](const TraceBuffer &t) {
        ASSERT_EQ(t.size(), pushed.size());
        std::size_t i = 0;
        for (const MicroOp op : t) {
            const MicroOp &want = pushed[i];
            ASSERT_EQ(op.pc, want.pc) << "op " << i;
            ASSERT_EQ(op.extra, want.extra) << "op " << i;
            ASSERT_EQ(op.cls, want.cls) << "op " << i;
            ASSERT_EQ(op.taken, want.taken) << "op " << i;
            ASSERT_EQ(op.dst, want.dst) << "op " << i;
            ASSERT_EQ(op.srcA, want.srcA) << "op " << i;
            ASSERT_EQ(op.srcB, want.srcB) << "op " << i;
            ++i;
        }
        const OpColumns cols = t.opColumns();
        for (std::size_t k = 0; k < pushed.size(); ++k) {
            ASSERT_EQ(cols.pc[k], pushed[k].pc) << "op " << k;
            ASSERT_EQ(cols.extra[k], pushed[k].extra) << "op " << k;
            ASSERT_EQ(opmeta::srcB(cols.meta[k]), pushed[k].srcB)
                << "op " << k;
        }
    };
    expectPushed(trace);
    const std::string path = tempPath("pushed_v3.bpt");
    writeTraceV3(trace, path);
    expectPushed(readTrace(path));
    std::remove(path.c_str());
}

TEST(TraceBuffer, PushRefusesSharedCutAndReadTraces)
{
    const auto w = makeWorkload("164.gzip");
    TraceBuffer built = generateTrace(*w, 1000, 2);
    const MicroOp op = built[0];
    TraceBuffer view = built.prefix(500);
    EXPECT_THROW(view.push(op), std::logic_error);
    {
        const TraceBuffer copy = built;
        EXPECT_THROW(built.push(op), std::logic_error);
    }
    // Alone again, and decoded above: the push drops the decode.
    view = TraceBuffer{};
    built.push(op);
    EXPECT_FALSE(built.opsMaterialized());
    EXPECT_EQ(built.size(), 1001u);
    EXPECT_EQ(built[1000].pc, op.pc);

    const std::string path = tempPath("push_read_v3.bpt");
    writeTraceV3(built, path);
    TraceBuffer loaded = readTrace(path);
    EXPECT_THROW(loaded.push(op), std::logic_error);
    std::remove(path.c_str());
}

TEST(TraceIo, PrefixViewWritesTheShorterTrace)
{
    // A prefix view writes exactly the file the shorter generation
    // writes: its sections stop at the cut, the delta streams
    // included.
    const auto w = makeWorkload("255.vortex");
    const TraceBuffer longer = generateTrace(*w, 30000, 8);
    const std::string a = tempPath("prefix_view_v3.bpt");
    const std::string b = tempPath("prefix_gen_v3.bpt");
    for (Counter ops : {0u, 1u, 777u, 20000u}) {
        writeTraceV3(longer.prefix(ops), a);
        writeTraceV3(generateTrace(*w, ops, 8), b);
        EXPECT_EQ(slurp(a), slurp(b)) << ops << " ops";
    }
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(TraceIo, FuzzTruncationAtEveryBoundary)
{
    // Any prefix of a valid columnar file must produce TraceIoError:
    // the directory checksum, recomputed section layout, exact
    // file-end check and per-block sums leave no unvalidated byte.
    const auto w = makeWorkload("164.gzip");
    const TraceBuffer original = generateTrace(*w, 40, 11);
    const std::string path = tempPath("fuzz_trunc_v3.bpt");
    writeTraceV3(original, path);

    const long size = static_cast<long>(slurp(path).size());
    ASSERT_GT(size, 192);
    for (long cut = 0; cut < size; ++cut) {
        writeTraceV3(original, path);
        ASSERT_EQ(0, truncate(path.c_str(), cut));
        EXPECT_THROW(readTrace(path), TraceIoError)
            << "truncated to " << cut << " of " << size << " bytes";
    }
    std::remove(path.c_str());
}

TEST(TraceIo, FuzzSeededBitFlipsNeverCorruptData)
{
    // A flipped bit either throws TraceIoError or decodes the exact
    // original trace — silently different data is the one forbidden
    // outcome. v3 checksums every region (directory FNV, per-block
    // payload sums, zero-checked padding), so rejection should be
    // near-total.
    const auto w = makeWorkload("164.gzip");
    const TraceBuffer original = generateTrace(*w, 300, 13);
    const std::string path = tempPath("fuzz_flip_v3.bpt");

    Rng rng(0xf1b3);
    std::size_t parsed = 0, rejected = 0;
    for (int round = 0; round < 200; ++round) {
        writeTraceV3(original, path);
        ASSERT_EQ(1u, robust::corruptFileBytes(path, 1, rng));
        try {
            const TraceBuffer t = readTrace(path);
            expectTracesEqual(original, t);
            // Branch columns are part of the contract too.
            const BranchSpan a = original.branchView();
            const BranchSpan b = t.branchView();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a.pc(i), b.pc(i));
                ASSERT_EQ(a.taken(i), b.taken(i));
            }
            ++parsed;
        } catch (const TraceIoError &) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 150u);
    EXPECT_EQ(parsed + rejected, 200u);
    std::remove(path.c_str());
}

TEST(TraceIo, V3FilesMatchGoldenDigests)
{
    // The bytes writeTraceV3 produces are what existing trace cache
    // entries and saved `cli --save-trace` files hold: they must not
    // move. 20 000 ops put 80 000 opMeta bytes in the file, so the
    // section spans two 64 KiB checksum blocks. Each line is
    // `<workload>\t<file bytes>\t<fnv1a-64 hex of the file>`; what
    // was computed is written to trace_v3_digests.actual.tsv.
    constexpr Counter kOps = 20000;
    std::vector<std::string> actual;
    const std::string path = tempPath("golden_v3.bpt");
    for (const std::string &name : specint2000Names()) {
        writeTraceV3(generateTrace(*makeWorkload(name), kOps, 42), path);
        const std::string bytes = slurp(path);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (unsigned char c : bytes) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(h));
        actual.push_back(name + "\t" + std::to_string(bytes.size()) +
                         "\t" + hex);
    }
    std::remove(path.c_str());
    {
        std::ofstream out("trace_v3_digests.actual.tsv");
        for (const std::string &l : actual)
            out << l << '\n';
    }

    std::vector<std::string> golden;
    std::ifstream in(BPSIM_GOLDEN_TRACE_V3);
    for (std::string l; std::getline(in, l);)
        golden.push_back(l);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << BPSIM_GOLDEN_TRACE_V3;
    EXPECT_EQ(actual, golden);
}

} // namespace
} // namespace bpsim

/**
 * @file
 * Tests for the on-disk trace cache: miss-then-hit, corruption
 * recovery, format-stamp invalidation, key separation, one shared
 * op decode under concurrent readers, and the SuiteTraces hit/miss
 * accounting the benches surface as metrics.
 */

#include "trace/trace_cache.hh"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "parallel/cell_pool.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace bpsim {
namespace {

namespace fs = std::filesystem;

/** A fresh, empty cache directory under the test temp dir. */
std::string
freshCacheDir(const char *name)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "/" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Deterministic synthetic trace: @p ops ops, every third a branch. */
TraceBuffer
syntheticTrace(Counter ops, std::uint64_t seed)
{
    TraceBuffer t;
    for (Counter i = 0; i < ops; ++i) {
        MicroOp op;
        if (i % 3 == 0) {
            op.cls = InstClass::CondBranch;
            op.pc = 0x1000 + ((i * 7 + seed) & 0xfff);
            op.taken = ((i + seed) & 3) != 0;
        } else {
            op.cls = InstClass::IntAlu;
            op.pc = 0x4000 + i;
        }
        t.push(op);
    }
    return t;
}

TEST(TraceCache, DisabledCacheMissesAndStoresNothing)
{
    TraceCache cache; // default: disabled
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.load("wl", 100, 1).has_value());
    EXPECT_FALSE(cache.store("wl", 100, 1, syntheticTrace(100, 1)));

    int generated = 0;
    bool hit = true;
    const TraceBuffer t = cache.fetch(
        "wl", 100, 1,
        [&] {
            ++generated;
            return syntheticTrace(100, 1);
        },
        &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(generated, 1);
    EXPECT_EQ(t.size(), 100u);
}

TEST(TraceCache, MissGeneratesAndStoresThenHits)
{
    const std::string dir = freshCacheDir("trace_cache_hit");
    TraceCache cache(dir);
    EXPECT_TRUE(cache.enabled());

    int generated = 0;
    const auto generate = [&] {
        ++generated;
        return syntheticTrace(120, 7);
    };

    bool hit = true;
    const TraceBuffer cold = cache.fetch("176.gcc", 120, 7, generate,
                                         &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(generated, 1);
    EXPECT_TRUE(fs::exists(cache.entryPath("176.gcc", 120, 7)));

    const TraceBuffer warm = cache.fetch("176.gcc", 120, 7, generate,
                                         &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(generated, 1); // generator not invoked again

    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(warm[i].pc, cold[i].pc);
        EXPECT_EQ(warm[i].taken, cold[i].taken);
        EXPECT_EQ(static_cast<int>(warm[i].cls),
                  static_cast<int>(cold[i].cls));
    }
    fs::remove_all(dir);
}

TEST(TraceCache, CorruptEntryIsIgnoredAndHealedByRegeneration)
{
    const std::string dir = freshCacheDir("trace_cache_corrupt");
    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("wl", 80, 3, syntheticTrace(80, 3)));
    const std::string path = cache.entryPath("wl", 80, 3);
    ASSERT_TRUE(fs::exists(path));

    // Stomp the entry with garbage: load must reject it but leave
    // the file alone — unlinking by path would race a concurrent
    // writer that already renamed a good entry into place.
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace file", f);
    std::fclose(f);
    EXPECT_FALSE(cache.load("wl", 80, 3).has_value());
    EXPECT_TRUE(fs::exists(path));

    // fetch regenerates and atomically overwrites the corrupt file.
    int generated = 0;
    bool hit = true;
    cache.fetch(
        "wl", 80, 3,
        [&] {
            ++generated;
            return syntheticTrace(80, 3);
        },
        &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(generated, 1);
    EXPECT_TRUE(cache.load("wl", 80, 3).has_value());
    fs::remove_all(dir);
}

TEST(TraceCache, WrongLengthEntryIsRejected)
{
    const std::string dir = freshCacheDir("trace_cache_len");
    TraceCache cache(dir);
    // A valid trace file whose length does not match the key: the
    // exact-length check must treat it as corrupt (a miss; the file
    // stays for a later store to overwrite).
    ASSERT_TRUE(cache.store("wl", 200, 1, syntheticTrace(50, 1)));
    EXPECT_FALSE(cache.load("wl", 200, 1).has_value());
    EXPECT_TRUE(fs::exists(cache.entryPath("wl", 200, 1)));
    fs::remove_all(dir);
}

TEST(TraceCache, FormatVersionBumpInvalidates)
{
    // Entries carry the format stamp in their name, so a valid trace
    // file under any other _vN name is never read: bumping
    // kFormatVersion invalidates every existing entry.
    const std::string dir = freshCacheDir("trace_cache_version");
    TraceCache cache(dir);
    const std::string path = cache.entryPath("wl", 60, 2);
    const std::string stamp =
        "_v" + std::to_string(TraceCache::kFormatVersion) + ".bptrace";
    ASSERT_EQ(path.substr(path.size() - stamp.size()), stamp);

    ASSERT_TRUE(cache.store("wl", 60, 2, syntheticTrace(60, 2)));
    EXPECT_TRUE(cache.load("wl", 60, 2).has_value());
    const std::string stem = path.substr(0, path.size() - stamp.size());
    for (const char *other : {"_v2.bptrace", "_v4.bptrace"}) {
        fs::copy_file(path, stem + other);
        EXPECT_EQ(readTrace(stem + other).size(), 60u) << other;
    }
    fs::remove(path);
    EXPECT_FALSE(cache.load("wl", 60, 2).has_value());
    fs::remove_all(dir);
}

TEST(TraceCache, UnsupportedVersionEntryIsIgnoredAndHealed)
{
    // An entry whose trace header declares a version this build does
    // not read — one of the retired raw (1) and compressed (2)
    // formats, or one written by a newer binary: must read as a miss,
    // stay on disk, and be atomically replaced on store.
    for (const unsigned char ver : {1, 2, 99}) {
        SCOPED_TRACE("version " + std::to_string(ver));
        const std::string dir = freshCacheDir("trace_cache_otherver");
        TraceCache cache(dir);
        const std::string path = cache.entryPath("wl", 70, 5);

        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const unsigned char header[24] = {'B', 'P', 'S', 'T', 'R', 'A',
                                          'C', 'E', ver, 0,   0,   0};
        ASSERT_EQ(sizeof(header),
                  std::fwrite(header, 1, sizeof(header), f));
        std::fclose(f);

        EXPECT_FALSE(cache.load("wl", 70, 5).has_value());
        EXPECT_TRUE(fs::exists(path));

        int generated = 0;
        cache.fetch("wl", 70, 5, [&] {
            ++generated;
            return syntheticTrace(70, 5);
        });
        EXPECT_EQ(generated, 1);
        const auto healed = cache.load("wl", 70, 5);
        ASSERT_TRUE(healed.has_value());
        EXPECT_EQ(healed->size(), 70u);
        fs::remove_all(dir);
    }
}

TEST(TraceCache, CacheEntriesShrinkSuiteAtLeast2x)
{
    // The compression claim, measured on the real 12-workload suite:
    // cache entries (columnar v3: delta+varint op stream plus the
    // raw branch columns) must be at least half the size of the same
    // traces as fixed 20-byte records behind a 24-byte header, the
    // size of the retired raw format.
    const std::string dir = freshCacheDir("trace_cache_shrink");
    const Counter ops = 20000;
    const SuiteTraces suite(ops, 42, nullptr, TraceCache(dir));
    TraceCache cache(dir);

    std::uintmax_t rawTotal = 0, packedTotal = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::string entry =
            cache.entryPath(suite.name(i), ops, 42);
        ASSERT_TRUE(fs::exists(entry)) << suite.name(i);
        packedTotal += fs::file_size(entry);
        rawTotal += 24 + 20 * suite.trace(i).size();
    }
    EXPECT_GE(rawTotal, 2 * packedTotal)
        << "raw " << rawTotal << " vs compressed " << packedTotal;
    fs::remove_all(dir);
}

/**
 * Eight threads touch the ops of @p shared, not yet decoded, at
 * once: first by index, then through the timing core. The trace
 * decodes once under them; every thread must read @p want's ops and
 * time @p shared as @p want times.
 */
void
expectConcurrentFirstTouch(const TraceBuffer &shared,
                           const TraceBuffer &want)
{
    ASSERT_FALSE(shared.opsMaterialized());
    const CoreConfig cfg;
    const auto timing = [&cfg](const TraceBuffer &t) {
        auto fp = makeFetchPredictor(PredictorKind::Gshare, 16 * 1024,
                                     DelayMode::Overriding);
        return runTiming(cfg, *fp, t);
    };
    const SimResult wantResult = timing(want);

    constexpr int kThreads = 8;
    std::atomic<int> arrived{0};
    std::vector<std::size_t> mismatches(kThreads, 0);
    std::vector<SimResult> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            arrived.fetch_add(1);
            while (arrived.load() < kThreads)
                std::this_thread::yield();
            for (std::size_t i = 0; i < want.size(); ++i) {
                const MicroOp a = shared[i];
                const MicroOp b = want[i];
                if (a.pc != b.pc || a.extra != b.extra ||
                    a.cls != b.cls || a.taken != b.taken ||
                    a.dst != b.dst || a.srcA != b.srcA ||
                    a.srcB != b.srcB)
                    ++mismatches[t];
            }
            got[t] = timing(shared);
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_TRUE(shared.opsMaterialized());
    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        EXPECT_EQ(mismatches[t], 0u);
        EXPECT_EQ(got[t].cycles, wantResult.cycles);
        EXPECT_EQ(got[t].instructions, want.size());
        EXPECT_EQ(got[t].mispredictions, wantResult.mispredictions);
        EXPECT_EQ(got[t].flushes, wantResult.flushes);
    }
}

TEST(TraceCache, ConcurrentReadersShareOneDecode)
{
    const auto w = makeWorkload("181.mcf");
    const TraceBuffer generated = generateTrace(*w, 20000, 3);
    const std::string dir = freshCacheDir("trace_cache_shared_decode");
    const TraceCache cache(dir);
    ASSERT_TRUE(cache.store("181.mcf", 20000, 3, generated));
    const auto loaded = cache.load("181.mcf", 20000, 3);
    ASSERT_TRUE(loaded.has_value());
    expectConcurrentFirstTouch(*loaded, generated);
    fs::remove_all(dir);
}

TEST(TraceCache, ConcurrentReadersShareOneDecodeOfAGeneratedTrace)
{
    // A generated trace holds the same encoded sections a loaded one
    // does, so its first touch is the same race.
    const auto w = makeWorkload("181.mcf");
    const TraceBuffer shared = generateTrace(*w, 20000, 3);
    expectConcurrentFirstTouch(shared, generateTrace(*w, 20000, 3));
}

TEST(TraceCache, RacingWritersAndACorruptorConverge)
{
    // Many processes sharing one cache directory are modeled by many
    // threads with *independent* TraceCache objects racing fetch()
    // on one key, while a corruptor keeps stomping the entry with
    // garbage. The contract under fire:
    //   - every fetch returns the correct trace (corruption is never
    //     served: entries are validated, rejected ones regenerate),
    //   - nobody unlinks concurrently-renamed good entries, and
    //   - after the dust settles one valid entry remains.
    const std::string dir = freshCacheDir("trace_cache_race");
    const TraceBuffer expect = syntheticTrace(400, 9);
    const std::string entry =
        TraceCache(dir).entryPath("wl", 400, 9);

    std::atomic<bool> stop{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 6; ++t) {
        writers.emplace_back([&] {
            TraceCache mine(dir); // own handle, like own process
            for (int round = 0; round < 25; ++round) {
                const TraceBuffer got = mine.fetch(
                    "wl", 400, 9,
                    [&] { return syntheticTrace(400, 9); });
                if (got.size() != expect.size()) {
                    ++mismatches;
                    continue;
                }
                for (std::size_t i = 0; i < got.size(); ++i)
                    if (got[i].pc != expect[i].pc ||
                        got[i].taken != expect[i].taken) {
                        ++mismatches;
                        break;
                    }
            }
        });
    }
    std::thread corruptor([&] {
        while (!stop.load()) {
            if (std::FILE *f = std::fopen(entry.c_str(), "wb")) {
                std::fputs("garbage, not a trace", f);
                std::fclose(f);
            }
            std::this_thread::yield();
        }
    });
    for (auto &t : writers)
        t.join();
    stop = true;
    corruptor.join();

    EXPECT_EQ(mismatches.load(), 0);
    // Heal whatever the corruptor's final stomp left behind.
    TraceCache cache(dir);
    const TraceBuffer final_ = cache.fetch(
        "wl", 400, 9, [&] { return syntheticTrace(400, 9); });
    EXPECT_EQ(final_.size(), expect.size());
    ASSERT_TRUE(cache.load("wl", 400, 9).has_value());
    fs::remove_all(dir);
}

/** Occurrences of @p needle in @p hay. */
std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle);
         at != std::string::npos; at = hay.find(needle, at + 1))
        ++n;
    return n;
}

TEST(TraceCache, UnwritableCacheDegradesGracefullyAndWarnsOnce)
{
    // An unwritable cache is a degraded environment, not a failed
    // run: stores fail, fetches keep working from memory, and the
    // warning fires once for the condition — not once per trace.
    const std::string dir = freshCacheDir("trace_cache_readonly");
    // A regular file where the cache directory should be: every
    // store hits ENOTDIR on the way in, even when running as root
    // (where a chmod'd directory would not stop writes).
    const std::string blocker = dir + "/blocker";
    std::FILE *f = std::fopen(blocker.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    TraceCache::resetStoreFailuresForTest();
    TraceCache cache(blocker + "/cache");
    EXPECT_TRUE(cache.enabled());

    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(cache.store("wl", 60, 1, syntheticTrace(60, 1)));
    EXPECT_FALSE(cache.store("wl", 60, 2, syntheticTrace(60, 2)));

    // fetch degrades to generate-every-time but still serves the
    // right trace.
    int generated = 0;
    bool hit = true;
    const TraceBuffer t = cache.fetch(
        "wl", 60, 3,
        [&] {
            ++generated;
            return syntheticTrace(60, 3);
        },
        &hit);
    const std::string err =
        ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(hit);
    EXPECT_EQ(generated, 1);
    EXPECT_EQ(t.size(), 60u);

    EXPECT_EQ(TraceCache::storeFailures(), 3u);
    EXPECT_EQ(countOccurrences(err, "continuing without the cache"),
              1u)
        << err;

    TraceCache::resetStoreFailuresForTest();
    fs::remove_all(dir);
}

TEST(TraceCache, ReadOnlyDirectoryFailsStoreNotFetch)
{
    if (::geteuid() == 0)
        GTEST_SKIP() << "root ignores directory write permissions";
    const std::string dir = freshCacheDir("trace_cache_ro_dir");
    fs::permissions(dir, fs::perms::owner_read |
                             fs::perms::owner_exec);
    TraceCache::resetStoreFailuresForTest();
    TraceCache cache(dir);

    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(cache.store("wl", 40, 1, syntheticTrace(40, 1)));
    const TraceBuffer t = cache.fetch(
        "wl", 40, 2, [&] { return syntheticTrace(40, 2); });
    const std::string err =
        ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(t.size(), 40u);
    EXPECT_GE(TraceCache::storeFailures(), 2u);
    EXPECT_EQ(countOccurrences(err, "continuing without the cache"),
              1u)
        << err;

    TraceCache::resetStoreFailuresForTest();
    fs::permissions(dir, fs::perms::owner_all);
    fs::remove_all(dir);
}

TEST(TraceCache, KeysSeparateWorkloadOpsAndSeed)
{
    TraceCache cache("/tmp/unused");
    const std::string base = cache.entryPath("wl", 100, 1);
    EXPECT_NE(cache.entryPath("other", 100, 1), base);
    EXPECT_NE(cache.entryPath("wl", 101, 1), base);
    EXPECT_NE(cache.entryPath("wl", 100, 2), base);
}

TEST(TraceCacheSuite, SuiteTracesCountsHitsAndMisses)
{
    const std::string dir = freshCacheDir("trace_cache_suite");

    // Cold: every workload generated and stored.
    const SuiteTraces cold(4000, 13, nullptr, TraceCache(dir));
    EXPECT_EQ(cold.cacheMisses(), cold.size());
    EXPECT_EQ(cold.cacheHits(), 0u);

    // Warm: every workload served from disk, including when the
    // construction itself runs on a pool.
    parallel::CellPool pool(4);
    const SuiteTraces warm(4000, 13, &pool, TraceCache(dir));
    EXPECT_EQ(warm.cacheHits(), warm.size());
    EXPECT_EQ(warm.cacheMisses(), 0u);

    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        ASSERT_EQ(warm.trace(i).size(), cold.trace(i).size());
        for (std::size_t k = 0; k < cold.trace(i).size(); ++k) {
            ASSERT_EQ(warm.trace(i)[k].pc, cold.trace(i)[k].pc);
            ASSERT_EQ(warm.trace(i)[k].taken, cold.trace(i)[k].taken);
        }
    }

    // A different seed shares nothing with the warm entries.
    const SuiteTraces other(4000, 14, nullptr, TraceCache(dir));
    EXPECT_EQ(other.cacheMisses(), other.size());
    fs::remove_all(dir);
}

} // namespace
} // namespace bpsim

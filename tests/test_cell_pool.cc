/**
 * @file
 * Tests for the cell executor (src/parallel) alone: every index
 * computed exactly once, commits in strict index order, the
 * lowest-index failure rethrown, and the same PoolStats whichever
 * way the pool was built. Each contract test runs against both
 * constructions: a standalone CellPool with its own workers, and one
 * participant of a shared SweepScheduler while a second participant
 * keeps running cells beside it.
 *
 * The suite links only bpsim_parallel (and what it links), so it
 * builds and runs under -fsanitize=thread where the full-library
 * suites cannot.
 */

#include "parallel/cell_pool.hh"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace bpsim {
namespace {

using parallel::CellPool;
using parallel::SweepScheduler;

void
sleepUs(long us)
{
    std::this_thread::sleep_for(std::chrono::microseconds(us));
}

enum class Construction { Standalone, Shared };

/**
 * The pool under test at @p jobs: a standalone CellPool(jobs), or a
 * participant of a SweepScheduler(jobs) whose second participant runs
 * 8-cell batches on its own driver thread until the harness dies,
 * checking its own commit order as it goes.
 */
class Harness
{
  public:
    Harness(Construction c, unsigned jobs)
    {
        if (c == Construction::Standalone) {
            pool_ = std::make_unique<CellPool>(jobs, "under_test");
            return;
        }
        sched_ = std::make_unique<SweepScheduler>(jobs);
        pool_ = std::make_unique<CellPool>(*sched_, "under_test");
        busy_ = std::make_unique<CellPool>(*sched_, "busy");
        driver_ = std::thread([this] {
            while (!stop_.load()) {
                std::size_t next = 0;
                busy_->run(
                    8, [](std::size_t) { sleepUs(100); },
                    [&](std::size_t i) {
                        if (i != next++)
                            misordered_ = true;
                    });
            }
        });
    }

    ~Harness()
    {
        if (driver_.joinable()) {
            stop_ = true;
            driver_.join();
            EXPECT_FALSE(misordered_) << "the busy participant's commits";
        }
    }

    CellPool &pool() { return *pool_; }

  private:
    std::unique_ptr<SweepScheduler> sched_; ///< destroyed last
    std::unique_ptr<CellPool> pool_;
    std::unique_ptr<CellPool> busy_;
    std::atomic<bool> stop_{false};
    bool misordered_ = false; ///< written by driver_ only
    std::thread driver_;
};

class CellPoolTest : public ::testing::TestWithParam<Construction>
{
};

TEST_P(CellPoolTest, ComputesEveryIndexOnceAndCommitsInOrder)
{
    // Later cells finish first, so only an index-order committer
    // commits 0, 1, 2, ...
    constexpr std::size_t kCells = 32;
    Harness h(GetParam(), 4);
    std::array<std::atomic<int>, kCells> computed{};
    std::vector<std::size_t> committed; // commit is single-threaded
    h.pool().run(
        kCells,
        [&](std::size_t i) {
            sleepUs(static_cast<long>(60 * (kCells - i)));
            computed[i].fetch_add(1);
        },
        [&](std::size_t i) { committed.push_back(i); });
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(computed[i].load(), 1) << "cell " << i;
    ASSERT_EQ(committed.size(), kCells);
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(committed[i], i);
}

TEST_P(CellPoolTest, MoreJobsThanCells)
{
    Harness h(GetParam(), 32);
    std::array<std::atomic<int>, 3> computed{};
    std::vector<std::size_t> committed;
    h.pool().run(
        3,
        [&](std::size_t i) {
            sleepUs(static_cast<long>(300 * (3 - i)));
            computed[i].fetch_add(1);
        },
        [&](std::size_t i) { committed.push_back(i); });
    for (auto &c : computed)
        EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(h.pool().stats().maxQueueDepth, 0u);
}

TEST_P(CellPoolTest, ComputeFailureRethrowsLowestIndexAfterJoin)
{
    // Cell 3 fails last: every later cell fails while it still runs.
    // The pool rethrows cell 3 anyway, exactly where a serial loop
    // would have stopped, with every cell before it committed in
    // order.
    for (unsigned jobs : {4u, 8u}) {
        Harness h(GetParam(), jobs);
        std::vector<std::size_t> committed;
        try {
            h.pool().run(
                16,
                [&](std::size_t i) {
                    sleepUs(i < 3 ? 1000 : i == 3 ? 10000 : 300);
                    if (i >= 3)
                        throw std::runtime_error("cell " +
                                                 std::to_string(i));
                },
                [&](std::size_t i) { committed.push_back(i); });
            ADD_FAILURE() << "expected run() to throw at jobs "
                          << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "cell 3") << "jobs " << jobs;
        }
        EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2}))
            << "jobs " << jobs;
    }
}

TEST_P(CellPoolTest, CommitFailureCancelsOutstandingCells)
{
    Harness h(GetParam(), 4);
    std::atomic<std::size_t> computed{0};
    std::vector<std::size_t> committed;
    EXPECT_THROW(
        h.pool().run(
            64,
            [&](std::size_t) {
                sleepUs(200);
                ++computed;
            },
            [&](std::size_t i) {
                if (i == 2)
                    throw std::runtime_error("commit failed");
                committed.push_back(i);
            }),
        std::runtime_error);
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1}));
    EXPECT_LT(computed.load(), 64u) << "queued cells were not cancelled";

    // The pool serves the next run as if nothing had failed.
    committed.clear();
    h.pool().run(
        5, [](std::size_t) {},
        [&](std::size_t i) { committed.push_back(i); });
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST_P(CellPoolTest, StatsAccumulateAcrossRuns)
{
    Harness h(GetParam(), 2);
    h.pool().run(5, [](std::size_t) {});
    h.pool().run(3, [](std::size_t) {});
    const auto &s = h.pool().stats();
    EXPECT_EQ(s.jobs, 2u);
    EXPECT_EQ(s.runs, 2u);
    EXPECT_EQ(s.cellsCompleted, 8u);
    EXPECT_EQ(s.cellMs.size(), 8u);
    EXPECT_EQ(s.maxQueueDepth, 3u);
    EXPECT_GE(s.wallMs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Both, CellPoolTest,
    ::testing::Values(Construction::Standalone, Construction::Shared),
    [](const ::testing::TestParamInfo<Construction> &info) {
        return info.param == Construction::Standalone ? "Standalone"
                                                      : "Shared";
    });

TEST(CellPool, SingleJobRunsInlineOnCallingThread)
{
    CellPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::size_t calls = 0;
    pool.run(8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
    });
    EXPECT_EQ(calls, 8u);
    EXPECT_EQ(pool.stats().jobs, 1u);
}

TEST(CellPool, SharedCellsRunOnWorkersEvenAtOneJob)
{
    SweepScheduler sched(1);
    CellPool pool(sched, "one");
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> committed;
    pool.run(
        1,
        [&](std::size_t) {
            EXPECT_NE(std::this_thread::get_id(), caller);
        },
        [&](std::size_t i) { committed.push_back(i); });
    EXPECT_EQ(committed, (std::vector<std::size_t>{0}));
    EXPECT_EQ(sched.stats().cells, 1u);
}

/** The process's thread count from /proc/self/status; 0 when that
 *  file cannot be read. */
std::size_t
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            std::size_t n = 0;
            status >> n;
            return n;
        }
        status.ignore(1 << 16, '\n');
    }
    return 0;
}

TEST(CellPool, WorkersNeverOutnumberQueuedCells)
{
    // Each cell waits (bounded) for the others to start, so the three
    // cells are in flight together and each needs its own thread.
    const std::size_t before = processThreads();
    std::set<std::thread::id> threads;
    {
        CellPool pool(32);
        EXPECT_EQ(processThreads(), before) << "workers start lazily";
        std::mutex mu;
        std::atomic<int> started{0};
        pool.run(3, [&](std::size_t) {
            {
                std::lock_guard<std::mutex> lock(mu);
                threads.insert(std::this_thread::get_id());
            }
            ++started;
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(2);
            while (started.load() < 3 &&
                   std::chrono::steady_clock::now() < deadline)
                sleepUs(100);
        });
        if (before > 0) {
            EXPECT_LE(processThreads(), before + 3);
        }
    }
    EXPECT_GE(threads.size(), 1u);
    EXPECT_LE(threads.size(), 3u);
}

TEST(CellPool, SharedStatsMatchStandalone)
{
    // The deterministic PoolStats fields do not depend on where the
    // cells ran.
    const std::vector<std::size_t> runs = {5, 3, 0, 1, 20, 4};
    CellPool standalone(4);
    SweepScheduler sched(4);
    CellPool shared(sched, "shared");
    for (std::size_t n : runs) {
        standalone.run(n, [](std::size_t) {});
        shared.run(n, [](std::size_t) {});
    }
    const auto &a = standalone.stats();
    const auto &b = shared.stats();
    EXPECT_EQ(a.jobs, b.jobs);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.cellsCompleted, b.cellsCompleted);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.cellMs.size(), b.cellMs.size());
    EXPECT_EQ(b.runs, runs.size());
    EXPECT_EQ(b.cellsCompleted, 33u);
    EXPECT_EQ(b.maxQueueDepth, 16u);
}

TEST(CellPool, FailingParticipantLeavesOthersCommitsIntact)
{
    SweepScheduler sched(4);
    CellPool ok(sched, "ok");
    CellPool failing(sched, "failing");
    std::vector<std::size_t> okCommitted, failCommitted;
    std::string error;
    std::thread other([&] {
        try {
            failing.run(
                40,
                [](std::size_t i) {
                    sleepUs(100);
                    if (i == 10)
                        throw std::runtime_error("cell 10 exploded");
                },
                [&](std::size_t i) { failCommitted.push_back(i); });
        } catch (const std::exception &e) {
            error = e.what();
        }
    });
    ok.run(
        48, [](std::size_t) { sleepUs(150); },
        [&](std::size_t i) { okCommitted.push_back(i); });
    other.join();

    EXPECT_EQ(error, "cell 10 exploded");
    ASSERT_EQ(failCommitted.size(), 10u);
    ASSERT_EQ(okCommitted.size(), 48u);
    for (std::size_t i = 0; i < okCommitted.size(); ++i)
        EXPECT_EQ(okCommitted[i], i);
    EXPECT_EQ(ok.stats().cellsCompleted, 48u);

    // Both keep serving runs afterwards.
    failing.run(2, [](std::size_t) {});
    EXPECT_EQ(failing.stats().cellsCompleted, 12u);
}

TEST(SweepScheduler, ProgressSumsLiveParticipants)
{
    SweepScheduler sched(2);
    EXPECT_EQ(sched.progress().jobs, 2u);
    {
        CellPool a(sched, "a");
        CellPool b(sched, "b");
        a.run(5, [](std::size_t) {});
        b.run(3, [](std::size_t) {});
        const auto p = sched.progress();
        EXPECT_EQ(p.enqueued, 8u);
        EXPECT_EQ(p.done, 8u);
        EXPECT_EQ(p.busyWorkers, 0u);
    }
    // A participant's cells leave the totals with it.
    EXPECT_EQ(sched.progress().enqueued, 0u);
}

TEST(JobsResolution, EnvAndFallbacks)
{
    unsetenv("BPSIM_JOBS");
    EXPECT_EQ(parallel::envJobs(), 0u);
    EXPECT_EQ(parallel::resolveJobs(5), 5u);
    EXPECT_EQ(parallel::resolveJobs(0), parallel::hardwareJobs());

    setenv("BPSIM_JOBS", "3", 1);
    EXPECT_EQ(parallel::envJobs(), 3u);
    EXPECT_EQ(parallel::resolveJobs(0), 3u);
    EXPECT_EQ(parallel::resolveJobs(7), 7u); // explicit request wins

    setenv("BPSIM_JOBS", "4294967295", 1);
    EXPECT_EQ(parallel::envJobs(), 4294967295u);

    // Past UINT_MAX a value used to wrap (2^32 + 1 ran at one job);
    // now it counts as unset, like any other bad value.
    for (const char *bad : {"0", "banana", "4294967296", "4294967297",
                            "4294967299", "99999999999999999999"}) {
        setenv("BPSIM_JOBS", bad, 1);
        EXPECT_EQ(parallel::envJobs(), 0u) << bad;
        EXPECT_EQ(parallel::resolveJobs(0), parallel::hardwareJobs())
            << bad;
    }
    unsetenv("BPSIM_JOBS");
    EXPECT_GE(parallel::hardwareJobs(), 1u);
}

} // namespace
} // namespace bpsim

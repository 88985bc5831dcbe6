/**
 * @file
 * Tests for the shared bench CLI parsing: `--jobs N` and `--jobs=N`
 * both parse (and both reject garbage with exit code 2), the
 * ReportSession strips `--report`/`--trace` in either form, and
 * unknown leftovers still trip requireNoExtraArgs.
 */

#include "bench_util.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/report_session.hh"

namespace bpsim {
namespace {

/** argv builder with stable storage. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        for (std::string &s : strings)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(strings.size());
    }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
    int argc;

    char **data() { return ptrs.data(); }
};

TEST(TakeJobsFlag, ParsesSeparatedForm)
{
    Argv a({"bench", "--jobs", "4", "tail"});
    EXPECT_EQ(takeJobsFlag(a.argc, a.data()), 4u);
    ASSERT_EQ(a.argc, 2);
    EXPECT_STREQ(a.data()[1], "tail");
}

TEST(TakeJobsFlag, ParsesEqualsForm)
{
    Argv a({"bench", "--jobs=7", "tail"});
    EXPECT_EQ(takeJobsFlag(a.argc, a.data()), 7u);
    ASSERT_EQ(a.argc, 2);
    EXPECT_STREQ(a.data()[1], "tail");
}

TEST(TakeJobsFlag, LastOccurrenceWinsAcrossForms)
{
    Argv a({"bench", "--jobs", "2", "--jobs=9"});
    EXPECT_EQ(takeJobsFlag(a.argc, a.data()), 9u);
    EXPECT_EQ(a.argc, 1);
}

TEST(TakeJobsFlag, AbsentFlagReturnsZero)
{
    Argv a({"bench", "other"});
    EXPECT_EQ(takeJobsFlag(a.argc, a.data()), 0u);
    EXPECT_EQ(a.argc, 2);
}

TEST(TakeJobsFlag, TrailingFlagIsLeftForUnknownArgCheck)
{
    Argv a({"bench", "--jobs"});
    EXPECT_EQ(takeJobsFlag(a.argc, a.data()), 0u);
    ASSERT_EQ(a.argc, 2);
    EXPECT_STREQ(a.data()[1], "--jobs");
}

using BenchUtilDeathTest = ::testing::Test;

// Values past UINT_MAX used to wrap: 2^32 ran at the hardware
// default, 2^32 + 1 at one job and 2^32 + 3 at three.
const char *const kBadJobs[] = {"zero", "-3", "4294967296", "4294967297",
                                "4294967299", "99999999999999999999"};

TEST(BenchUtilDeathTest, SeparatedGarbageExits2)
{
    for (const char *bad : kBadJobs) {
        Argv a({"bench", "--jobs", bad});
        EXPECT_EXIT(takeJobsFlag(a.argc, a.data()),
                    ::testing::ExitedWithCode(2),
                    "positive integer(.|\n)*usage: .*\\[--jobs N\\]")
            << bad;
    }
}

TEST(BenchUtilDeathTest, EqualsGarbageExits2)
{
    for (const char *bad : kBadJobs) {
        Argv a({"bench", std::string("--jobs=") + bad});
        EXPECT_EXIT(takeJobsFlag(a.argc, a.data()),
                    ::testing::ExitedWithCode(2),
                    "positive integer(.|\n)*usage: .*\\[--jobs N\\]")
            << bad;
    }
}

TEST(BenchUtilDeathTest, EqualsEmptyExits2)
{
    Argv a({"bench", "--jobs="});
    EXPECT_EXIT(takeJobsFlag(a.argc, a.data()),
                ::testing::ExitedWithCode(2), "positive integer");
}

TEST(BenchUtilDeathTest, UnknownArgumentExits2)
{
    Argv a({"bench", "--frobnicate"});
    EXPECT_EXIT(requireNoExtraArgs(a.argc, a.data()),
                ::testing::ExitedWithCode(2), "unknown argument");
}

TEST(ReportSession, StripsSeparatedForm)
{
    const std::string report = ::testing::TempDir() + "bu_sep.json";
    const std::string trace = ::testing::TempDir() + "bu_sep.jsonl";
    Argv a({"bench", "--report", report, "--trace", trace, "x"});
    obs::ReportSession s(a.argc, a.data(), "test");
    EXPECT_EQ(s.reportPath(), report);
    EXPECT_EQ(s.tracePath(), trace);
    ASSERT_EQ(a.argc, 2);
    EXPECT_STREQ(a.data()[1], "x");
    // Neutralize the destructor's file writes.
    (void)s.finish();
}

TEST(ReportSession, StripsEqualsForm)
{
    const std::string report = ::testing::TempDir() + "bu_eq.json";
    const std::string trace = ::testing::TempDir() + "bu_eq.jsonl";
    Argv a({"bench", "--report=" + report, "--trace=" + trace, "x"});
    obs::ReportSession s(a.argc, a.data(), "test");
    EXPECT_EQ(s.reportPath(), report);
    EXPECT_EQ(s.tracePath(), trace);
    ASSERT_EQ(a.argc, 2);
    EXPECT_STREQ(a.data()[1], "x");
    (void)s.finish();
}

} // namespace
} // namespace bpsim

/**
 * @file
 * Tests for the machine-readable run-report layer: JSON round-trips,
 * schema-version rejection, validate() invariants, and the event
 * tracer's ring-buffer wraparound and export formats.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "obs/run_report.hh"

using namespace bpsim::obs;

namespace {

RunReport::Row
timingRow(const std::string &workload)
{
    RunReport::Row r;
    r.workload = workload;
    r.predictor = "perceptron";
    r.mode = "overriding";
    r.budgetBytes = 64 * 1024;
    r.branches = 1000;
    r.mispredictions = 50;
    r.hasTiming = true;
    r.issueWidth = 4;
    r.cycles = 5000;
    r.instructions = 9000;
    r.flushCyclesOverride = 120;
    r.flushCyclesMispredict = 380;
    r.squashedUops = 4 * (120 + 380);
    r.flushes = 60;
    r.stallCyclesIcache = 40;
    r.stallCyclesBtb = 10;
    r.robStallCycles = 25;
    return r;
}

RunReport
sampleReport()
{
    RunReport rep;
    rep.experiment = "unit-test";
    rep.opsPerWorkload = 9000;
    rep.seed = 42;
    rep.rows.push_back(timingRow("176.gcc"));

    RunReport::Row acc;
    acc.workload = "164.gzip";
    acc.predictor = "gshare";
    acc.budgetBytes = 16 * 1024;
    acc.branches = 500;
    acc.mispredictions = 30;
    rep.rows.push_back(acc);
    return rep;
}

} // namespace

TEST(RunReport, JsonRoundTripPreservesEverything)
{
    RunReport rep = sampleReport();
    Json metrics = Json::object();
    metrics.set("sim.core.cycles", Json(std::uint64_t{5000}));
    rep.metrics = metrics;

    const std::string text = rep.toJson().dump(2);
    const RunReport back = RunReport::fromJson(Json::parse(text));

    EXPECT_EQ(back.schemaVersion, RunReport::kSchemaVersion);
    EXPECT_EQ(back.experiment, "unit-test");
    EXPECT_EQ(back.opsPerWorkload, 9000u);
    EXPECT_EQ(back.seed, 42u);
    ASSERT_EQ(back.rows.size(), 2u);

    const auto &t = back.rows[0];
    EXPECT_EQ(t.key(), rep.rows[0].key());
    EXPECT_TRUE(t.hasTiming);
    EXPECT_EQ(t.issueWidth, 4u);
    EXPECT_EQ(t.cycles, 5000u);
    EXPECT_EQ(t.instructions, 9000u);
    EXPECT_EQ(t.squashedUops, 2000u);
    EXPECT_EQ(t.flushes, 60u);
    EXPECT_EQ(t.flushCyclesOverride, 120u);
    EXPECT_EQ(t.flushCyclesMispredict, 380u);
    EXPECT_EQ(t.stallCyclesIcache, 40u);
    EXPECT_EQ(t.stallCyclesBtb, 10u);
    EXPECT_EQ(t.robStallCycles, 25u);
    EXPECT_DOUBLE_EQ(t.ipc(), 9000.0 / 5000.0);

    const auto &a = back.rows[1];
    EXPECT_FALSE(a.hasTiming);
    EXPECT_EQ(a.mode, "");
    EXPECT_EQ(a.branches, 500u);
    EXPECT_DOUBLE_EQ(a.mispredictPercent(), 6.0);

    EXPECT_DOUBLE_EQ(back.metrics.get("sim.core.cycles").asNumber(),
                     5000.0);
}

TEST(RunReport, RejectsUnknownSchemaVersion)
{
    Json j = sampleReport().toJson();
    j.set("schema_version", Json(RunReport::kSchemaVersion + 1));
    EXPECT_THROW(RunReport::fromJson(j), RunReportError);
}

TEST(RunReport, RejectsNonObject)
{
    EXPECT_THROW(RunReport::fromJson(Json::parse("[1,2]")),
                 RunReportError);
    EXPECT_THROW(Json::parse("{not json"), JsonError);
}

TEST(RunReport, ValidateAcceptsConsistentReport)
{
    EXPECT_TRUE(sampleReport().validate().empty());
}

TEST(RunReport, ValidateFlagsBrokenInvariants)
{
    // Duplicate row keys.
    RunReport dup = sampleReport();
    dup.rows.push_back(dup.rows[0]);
    EXPECT_FALSE(dup.validate().empty());

    // Squashed uops out of step with flush-cycle attribution.
    RunReport bad = sampleReport();
    bad.rows[0].squashedUops += 1;
    EXPECT_FALSE(bad.validate().empty());

    // More mispredictions than branches.
    RunReport impossible = sampleReport();
    impossible.rows[1].mispredictions =
        impossible.rows[1].branches + 1;
    EXPECT_FALSE(impossible.validate().empty());
}

TEST(RunReport, ValidateFlagsTruncatedTimingRow)
{
    RunReport truncated = sampleReport();
    truncated.rows[0].instructions = truncated.opsPerWorkload - 1;
    const auto problems = truncated.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("ops_per_workload"), std::string::npos);

    // Reports that do not record their trace length skip the check.
    truncated.opsPerWorkload = 0;
    EXPECT_TRUE(truncated.validate().empty());
}

TEST(RunReport, FileRoundTrip)
{
    const std::string path =
        testing::TempDir() + "/bpsim_run_report_test.json";
    const RunReport rep = sampleReport();
    ASSERT_TRUE(rep.writeFile(path));
    const RunReport back = RunReport::readFile(path);
    EXPECT_EQ(back.rows.size(), rep.rows.size());
    EXPECT_EQ(back.rows[0].key(), rep.rows[0].key());
    std::remove(path.c_str());
}

TEST(EventTracer, RingBufferWraparoundKeepsMostRecent)
{
    EventTracer t(4);
    for (std::uint64_t c = 0; c < 10; ++c)
        t.record(c, SimEvent::Predict, 0x1000 + c, c % 2);

    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 6u);
    EXPECT_EQ(t.recorded(), 10u);
    // Oldest retained is cycle 6; newest is cycle 9.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(t.at(i).cycle, 6 + i);
        EXPECT_EQ(t.at(i).pc, 0x1000 + 6 + i);
    }

    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(EventTracer, JsonlExportOneObjectPerLine)
{
    EventTracer t(8);
    t.record(1, SimEvent::OverrideDisagree, 0x40, 5);
    t.record(2, SimEvent::MispredictResolve, 0x44, 12);

    std::ostringstream os;
    t.exportJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::vector<Json> lines;
    while (std::getline(is, line))
        lines.push_back(Json::parse(line));

    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].get("event").asString(), "override_disagree");
    EXPECT_EQ(lines[0].get("cycle").asU64(), 1u);
    EXPECT_EQ(lines[0].get("arg").asU64(), 5u);
    EXPECT_EQ(lines[1].get("event").asString(), "mispredict_resolve");
}

TEST(EventTracer, ChromeTraceIsLoadableJson)
{
    EventTracer t(8);
    t.record(3, SimEvent::Flush, 0x80, 4);
    t.record(7, SimEvent::RobStall, 0, 0);

    std::ostringstream os;
    t.exportChromeTrace(os);
    const Json doc = Json::parse(os.str());
    const Json &events = doc.get("traceEvents");
    ASSERT_TRUE(events.isArray());
    // Metadata thread-name rows + the two recorded events.
    ASSERT_GE(events.size(), 2u);
    bool saw_flush = false;
    for (const Json &e : events.items()) {
        if (e.get("ph").asString() == "M") {
            EXPECT_EQ(e.get("name").asString(), "thread_name");
            continue;
        }
        EXPECT_EQ(e.get("ph").asString(), "X");
        if (e.get("name").asString() == "flush") {
            saw_flush = true;
            EXPECT_DOUBLE_EQ(e.get("ts").asNumber(), 3.0);
            EXPECT_DOUBLE_EQ(e.get("dur").asNumber(), 4.0);
        }
    }
    EXPECT_TRUE(saw_flush);
}

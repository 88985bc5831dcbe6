/**
 * @file
 * Unit tests for the obs metric primitives: counter/gauge semantics,
 * log2-histogram bucket math, registry find-or-create and lookup,
 * disabled-mode sink behaviour and JSON snapshots.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.hh"

using namespace bpsim::obs;

TEST(CounterMetric, AddSetReset)
{
    CounterMetric c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.set(7);
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeMetric, LastWriteWins)
{
    GaugeMetric g;
    g.set(1.5);
    g.set(-2.25);
    EXPECT_DOUBLE_EQ(g.value(), -2.25);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Log2Histogram, BucketOfMatchesFloorLog2)
{
    EXPECT_EQ(Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(1), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(2), 1u);
    EXPECT_EQ(Log2Histogram::bucketOf(3), 1u);
    EXPECT_EQ(Log2Histogram::bucketOf(4), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(7), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(8), 3u);
    EXPECT_EQ(Log2Histogram::bucketOf(1023), 9u);
    EXPECT_EQ(Log2Histogram::bucketOf(1024), 10u);
    EXPECT_EQ(Log2Histogram::bucketOf(UINT64_MAX), 63u);
}

TEST(Log2Histogram, BucketLowIsInverseOfBucketOf)
{
    for (unsigned i = 0; i < Log2Histogram::kBuckets; ++i)
        EXPECT_EQ(Log2Histogram::bucketOf(Log2Histogram::bucketLow(i)),
                  i);
}

TEST(Log2Histogram, RecordAccumulates)
{
    Log2Histogram h;
    EXPECT_EQ(h.maxBucket(), -1);
    h.record(0);
    h.record(1);
    h.record(5);
    h.record(5);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.sum(), 11u);
    EXPECT_DOUBLE_EQ(h.mean(), 11.0 / 4.0);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(2), 2u);
    EXPECT_EQ(h.count(1), 0u);
    EXPECT_EQ(h.maxBucket(), 2);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.maxBucket(), -1);
}

TEST(MetricRegistry, FindOrCreateReturnsStableHandles)
{
    MetricRegistry reg;
    CounterMetric &a = reg.counter("sim.core.cycles");
    a.add(10);
    CounterMetric &b = reg.counter("sim.core.cycles");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 10u);

    // Handles survive further registration (deque storage).
    for (int i = 0; i < 100; ++i)
        reg.counter("c" + std::to_string(i)).add(1);
    EXPECT_EQ(a.value(), 10u);
    EXPECT_EQ(reg.findCounter("sim.core.cycles")->value(), 10u);
}

TEST(MetricRegistry, LookupByNameAndType)
{
    MetricRegistry reg;
    reg.counter("x").add(1);
    reg.gauge("y").set(2.0);
    reg.histogram("z").record(4);

    EXPECT_NE(reg.findCounter("x"), nullptr);
    EXPECT_EQ(reg.findCounter("y"), nullptr); // y is a gauge
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("y")->value(), 2.0);
    EXPECT_EQ(reg.findHistogram("z")->total(), 1u);

    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "x");
    EXPECT_EQ(names[1], "y");
    EXPECT_EQ(names[2], "z");
    EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricRegistry, DisabledModeRegistersNothing)
{
    MetricRegistry reg(false);
    EXPECT_FALSE(reg.enabled());

    // Instrumented code runs unconditionally against the sink...
    reg.counter("sim.core.cycles").add(123);
    reg.gauge("ipc").set(1.5);
    reg.histogram("lat").record(9);

    // ...but nothing is registered or exported.
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_TRUE(reg.names().empty());
    EXPECT_EQ(reg.findCounter("sim.core.cycles"), nullptr);
    EXPECT_EQ(reg.toJson().size(), 0u);

    // All disabled lookups alias the same sink per type.
    EXPECT_EQ(&reg.counter("a"), &reg.counter("b"));
    EXPECT_EQ(&reg.gauge("a"), &reg.gauge("b"));
    EXPECT_EQ(&reg.histogram("a"), &reg.histogram("b"));
}

TEST(MetricRegistry, JsonSnapshotShape)
{
    MetricRegistry reg;
    reg.counter(labeledName("sim.core.flush_cycles", "cause",
                            "override"))
        .add(7);
    reg.gauge("ipc").set(1.25);
    auto &h = reg.histogram("lat");
    h.record(1);
    h.record(6);

    const Json j = reg.toJson();
    EXPECT_DOUBLE_EQ(
        j.get("sim.core.flush_cycles{cause=override}").asNumber(),
        7.0);
    EXPECT_DOUBLE_EQ(j.get("ipc").asNumber(), 1.25);
    const Json &hist = j.get("lat");
    EXPECT_DOUBLE_EQ(hist.get("total").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(hist.get("sum").asNumber(), 7.0);
    // bucket keyed by its low edge: 6 lands in [4,8).
    EXPECT_DOUBLE_EQ(hist.get("buckets").get("4").asNumber(), 1.0);
}

TEST(MetricRegistry, ClearDropsMetrics)
{
    MetricRegistry reg;
    reg.counter("x").add(1);
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.findCounter("x"), nullptr);
}

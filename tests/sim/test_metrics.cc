/**
 * @file
 * Unit tests for the hierarchical metric registry: registration rules,
 * snapshot detachment, and the deterministic sweep-worker merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/report.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace bssd::sim;

TEST(MetricRegistry, RegistersEveryKind)
{
    Counter c("c");
    Histogram lat("lat"), pause("pause");
    double gaugeState = 3.5;

    MetricRegistry reg;
    reg.addCounter("ssd0.writes", c);
    reg.addHistogram("ssd0.write_lat", lat);
    reg.addHistogram("ssd0.ftl.gc.pause", pause);
    reg.addGauge("ssd0.ftl.waf", [&] { return gaugeState; });

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.contains("ssd0.ftl.gc.pause"));
    EXPECT_FALSE(reg.contains("ssd0.nope"));

    // paths() comes back sorted (std::map order).
    auto paths = reg.paths();
    ASSERT_EQ(paths.size(), 4u);
    EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));

    auto gauges = reg.gaugePaths();
    ASSERT_EQ(gauges.size(), 1u);
    EXPECT_EQ(gauges[0], "ssd0.ftl.waf");
    EXPECT_DOUBLE_EQ(reg.gaugeValue("ssd0.ftl.waf"), 3.5);
    gaugeState = 7.0;
    EXPECT_DOUBLE_EQ(reg.gaugeValue("ssd0.ftl.waf"), 7.0);
}

TEST(MetricRegistry, DuplicatePathPanics)
{
    Counter a("a"), b("b");
    MetricRegistry reg;
    // Re-registering a path on the SAME registry is the run-time panic
    // this test asserts, so every duplicate below is intentional.
    // bssd-lint: allow(xcheck-metric-path) duplicate registration under test
    reg.addCounter("x.ops", a);
    // bssd-lint: allow(xcheck-metric-path) duplicate registration under test
    EXPECT_THROW(reg.addCounter("x.ops", b), SimPanic);
    // Cross-kind shadowing is just as much a bug.
    // bssd-lint: allow(xcheck-metric-path) duplicate registration under test
    EXPECT_THROW(reg.addGauge("x.ops", [] { return 0.0; }), SimPanic);
    Histogram h("h");
    // bssd-lint: allow(xcheck-metric-path) duplicate registration under test
    EXPECT_THROW(reg.addHistogram("x.ops", h), SimPanic);
}

TEST(MetricRegistry, GaugeValueOnNonGaugePanics)
{
    Counter c("c");
    MetricRegistry reg;
    reg.addCounter("x.ops", c);
    EXPECT_THROW(reg.gaugeValue("x.ops"), SimPanic);
    EXPECT_THROW(reg.gaugeValue("missing"), SimPanic);
}

TEST(MetricsSnapshot, DetachesFromComponents)
{
    Counter c("c");
    c.add(10);
    MetricRegistry reg;
    reg.addCounter("rig.ops", c);

    MetricsSnapshot snap = reg.snapshot();
    ASSERT_NE(snap.find("rig.ops"), nullptr);
    EXPECT_DOUBLE_EQ(snap.find("rig.ops")->value, 10.0);

    c.add(5); // later activity must not leak into the snapshot
    EXPECT_DOUBLE_EQ(snap.find("rig.ops")->value, 10.0);
    EXPECT_DOUBLE_EQ(reg.snapshot().find("rig.ops")->value, 15.0);
}

TEST(MetricsSnapshot, MergeAddsCountersAndGauges)
{
    Counter c1("c"), c2("c");
    c1.add(3);
    c2.add(4);
    MetricRegistry r1, r2;
    r1.addCounter("rig.ops", c1);
    r1.addGauge("rig.backlog", [] { return 2.0; });
    r2.addCounter("rig.ops", c2);
    r2.addGauge("rig.backlog", [] { return 5.0; });

    MetricsSnapshot merged = r1.snapshot();
    merged.merge(r2.snapshot());
    EXPECT_DOUBLE_EQ(merged.find("rig.ops")->value, 7.0);
    EXPECT_DOUBLE_EQ(merged.find("rig.backlog")->value, 7.0);
}

TEST(MetricsSnapshot, MergeHistogramsBucketWise)
{
    Histogram h1("h"), h2("h");
    for (int i = 0; i < 100; ++i)
        h1.record(10);
    for (int i = 0; i < 50; ++i)
        h2.record(1000);
    MetricRegistry r1, r2;
    r1.addHistogram("rig.lat", h1);
    r2.addHistogram("rig.lat", h2);

    MetricsSnapshot merged = r1.snapshot();
    merged.merge(r2.snapshot());
    const MetricValue *v = merged.find("rig.lat");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->count, 150u);
    EXPECT_EQ(v->sum, 100u * 10 + 50u * 1000);
    EXPECT_EQ(v->min, 10u);
    EXPECT_EQ(v->max, 1000u);
    // The merged percentile sees both populations.
    EXPECT_LE(v->percentile(50.0), 12u);
    EXPECT_GE(v->percentile(99.0), 900u);
}

TEST(MetricsSnapshot, MergeKindMismatchPanics)
{
    Counter c("c");
    Histogram h("h");
    MetricRegistry r1, r2;
    r1.addCounter("rig.mixed", c);
    r2.addHistogram("rig.mixed", h);
    MetricsSnapshot s = r1.snapshot();
    EXPECT_THROW(s.merge(r2.snapshot()), SimPanic);
}

TEST(MetricsSnapshot, MergeKeepsOneSidedPaths)
{
    Counter c("c");
    Histogram h("h");
    c.add(2);
    h.record(9);
    MetricRegistry r1, r2;
    r1.addCounter("only.left", c);
    r2.addHistogram("only.right", h);

    MetricsSnapshot merged = r1.snapshot();
    merged.merge(r2.snapshot());
    ASSERT_NE(merged.find("only.left"), nullptr);
    ASSERT_NE(merged.find("only.right"), nullptr);
    EXPECT_EQ(merged.find("only.right")->count, 1u);
}

TEST(MetricsSnapshot, SweepWorkerMergeIsDeterministic)
{
    // The sweep coordinator merges worker snapshots in job order. The
    // serialized result of that fold must be a pure function of the
    // inputs - run the whole pipeline twice and compare bytes.
    auto fold = [] {
        MetricsSnapshot acc;
        for (int w = 0; w < 4; ++w) {
            Counter c("c");
            Histogram lat("lat"), h("h");
            c.add(static_cast<std::uint64_t>(10 + w));
            Rng rng(500 + static_cast<std::uint64_t>(w));
            for (int i = 0; i < 200; ++i) {
                lat.record(rng.nextBelow(100000));
                h.record(rng.nextBelow(100000));
            }
            MetricRegistry reg;
            reg.addCounter("rig.ops", c);
            reg.addHistogram("rig.lat", lat);
            reg.addHistogram("rig.hist", h);
            reg.addGauge("rig.free", [&] { return double(w); });
            acc.merge(reg.snapshot());
        }
        std::ostringstream os;
        acc.writeJson(os);
        return os.str();
    };
    EXPECT_EQ(fold(), fold());
}

TEST(SeriesTable, ColumnUnionJoinedOnTickPadsWithZero)
{
    // Two shard registries with one shared and one one-sided gauge
    // (the rebalance target's inbound-keys column): the merged table
    // must keep the union and pad missing cells with 0, not drop the
    // one-sided column.
    double q0 = 0.0, q1 = 0.0, inbound = 0.0;
    MetricRegistry r0, r1;
    r0.addGauge("slo.shard0.queue_depth", [&] { return q0; });
    r1.addGauge("slo.shard1.queue_depth", [&] { return q1; });
    r1.addGauge("slo.shard1.inbound_keys", [&] { return inbound; });

    GaugeSampler s0(r0, 100), s1(r1, 100);
    q0 = 3;
    q1 = 5;
    inbound = 7;
    s0.sample(0);
    s1.sample(0);
    q0 = 4;
    inbound = 9;
    s0.sample(100);
    s1.sample(100);

    SeriesTable table;
    table.merge(s0);
    table.merge(s1);
    // Each sampler contributes its gauge paths in sorted registry
    // order, so inbound_keys lands before queue_depth for shard1.
    ASSERT_EQ(table.columns.size(), 3u);
    EXPECT_EQ(table.columns[0], "slo.shard0.queue_depth");
    EXPECT_EQ(table.columns[1], "slo.shard1.inbound_keys");
    EXPECT_EQ(table.columns[2], "slo.shard1.queue_depth");
    ASSERT_EQ(table.rows.size(), 2u);
    EXPECT_EQ(table.rows[0].values,
              (std::vector<double>{3, 7, 5}));
    EXPECT_EQ(table.rows[1].values,
              (std::vector<double>{4, 9, 5}));
    EXPECT_EQ(table.period, 100u);
}

TEST(SeriesTable, OneSidedSampleTicksSurviveTheJoin)
{
    // A sampler that recorded rows at ticks the other never saw (a
    // shard built mid-run): the union keeps every tick, padding the
    // absent sampler's columns with 0.
    double a = 1.0, b = 2.0;
    MetricRegistry ra, rb;
    ra.addGauge("slo.a", [&] { return a; });
    rb.addGauge("slo.b", [&] { return b; });
    GaugeSampler sa(ra, 100), sb(rb, 200);
    sa.sample(0);
    sa.sample(100);
    sb.sample(0);
    sb.sample(200);

    SeriesTable table;
    table.merge(sa);
    table.merge(sb);
    ASSERT_EQ(table.rows.size(), 3u); // ticks 0, 100, 200
    EXPECT_EQ(table.rows[0].values, (std::vector<double>{1, 2}));
    EXPECT_EQ(table.rows[1].values, (std::vector<double>{1, 0}));
    EXPECT_EQ(table.rows[2].values, (std::vector<double>{0, 2}));

    // Serialization is a pure function of the table.
    std::ostringstream o1, o2;
    table.writeJson(o1);
    table.writeJson(o2);
    EXPECT_EQ(o1.str(), o2.str());
    EXPECT_NE(o1.str().find("\"columns\""), std::string::npos);
}

TEST(SeriesTable, InterleavedAndDisjointTicksMergeInTickOrder)
{
    // Four samplers whose tick sets interleave (a, b), lie wholly after
    // the table (c) and wholly before it (d, whose first tick precedes
    // every existing row). Each merge keeps the rows sorted, joins
    // equal ticks into one row and pads the cells a sampler did not
    // record with 0.
    double v = 0.0;
    MetricRegistry ra, rb, rc, rd;
    ra.addGauge("slo.a", [&] { return v; });
    rb.addGauge("slo.b", [&] { return v; });
    rc.addGauge("slo.c", [&] { return v; });
    rd.addGauge("slo.d", [&] { return v; });
    GaugeSampler sa(ra, 10), sb(rb, 10), sc(rc, 10), sd(rd, 10);
    auto sampleAt = [&](GaugeSampler &s, std::vector<Tick> ticks) {
        for (Tick at : ticks) {
            v = static_cast<double>(at) + 0.5;
            s.sample(at);
        }
    };
    sampleAt(sa, {100, 200, 300});
    sampleAt(sb, {50, 150, 200, 350});
    sampleAt(sc, {400, 500});
    sampleAt(sd, {10, 20});

    SeriesTable table;
    for (const GaugeSampler *s : {&sa, &sb, &sc, &sd})
        table.merge(*s);

    const std::vector<Tick> ticks = {10,  20,  50,  100, 150,
                                     200, 300, 350, 400, 500};
    ASSERT_EQ(table.rows.size(), ticks.size());
    for (std::size_t i = 0; i < ticks.size(); ++i)
        EXPECT_EQ(table.rows[i].at, ticks[i]) << "row " << i;
    EXPECT_EQ(table.rows[0].values, (std::vector<double>{0, 0, 0, 10.5}));
    EXPECT_EQ(table.rows[2].values, (std::vector<double>{0, 50.5, 0, 0}));
    EXPECT_EQ(table.rows[5].values,
              (std::vector<double>{200.5, 200.5, 0, 0}));
    EXPECT_EQ(table.rows[9].values, (std::vector<double>{0, 0, 500.5, 0}));

    std::ostringstream os;
    table.writeJson(os);
    EXPECT_EQ(os.str(), "{\n"
                        "  \"period_ticks\": 10,\n"
                        "  \"columns\": [\"slo.a\", \"slo.b\", "
                        "\"slo.c\", \"slo.d\"],\n"
                        "  \"rows\": [\n"
                        "    [10, 0, 0, 0, 10.5],\n"
                        "    [20, 0, 0, 0, 20.5],\n"
                        "    [50, 0, 50.5, 0, 0],\n"
                        "    [100, 100.5, 0, 0, 0],\n"
                        "    [150, 0, 150.5, 0, 0],\n"
                        "    [200, 200.5, 200.5, 0, 0],\n"
                        "    [300, 300.5, 0, 0, 0],\n"
                        "    [350, 0, 350.5, 0, 0],\n"
                        "    [400, 0, 0, 400.5, 0],\n"
                        "    [500, 0, 0, 500.5, 0]\n"
                        "  ]\n"
                        "}");
}

TEST(MetricsSnapshot, WriteJsonShape)
{
    Counter c("c");
    c.add(3);
    Histogram h("h");
    h.record(5);
    MetricRegistry reg;
    reg.addCounter("a.ops", c);
    reg.addHistogram("a.lat", h);

    std::ostringstream os;
    reg.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"a.ops\""), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"hist\""), std::string::npos);
    // Deterministic output: same registry, same bytes.
    std::ostringstream os2;
    reg.writeJson(os2);
    EXPECT_EQ(json, os2.str());
}

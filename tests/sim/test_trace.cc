/**
 * @file
 * Unit tests for the span tracer: nesting, the phase-partition
 * invariant on a real device stack, byte-identical same-seed traces,
 * the disabled path, and the shared tracepoint surface.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

using namespace bssd;
using namespace bssd::sim;

TEST(Tracer, SpansNestThroughTheImplicitStack)
{
    Tracer t;
    SpanId outer = t.beginSpan("ssd", "blockWrite", 100);
    EXPECT_EQ(t.currentSpan(), outer);
    SpanId inner = t.beginSpan("ftl", "write", 110);
    EXPECT_NE(inner, outer);
    EXPECT_EQ(t.currentSpan(), inner);

    t.phase("media", 110, 150);
    t.endSpan(inner, 150);
    EXPECT_EQ(t.currentSpan(), outer);
    t.endSpan(outer, 160);
    EXPECT_EQ(t.currentSpan(), 0u);

    ASSERT_EQ(t.events().size(), 3u);
    const auto &events = t.events();
    EXPECT_EQ(events[0].kind, Tracer::Event::Kind::span);
    EXPECT_EQ(events[0].parent, 0u);
    EXPECT_EQ(events[1].parent, outer);   // inner span
    EXPECT_EQ(events[2].parent, inner);   // phase under inner
    // The phase inherits the inner span's category lane.
    EXPECT_EQ(t.string(events[2].cat), "ftl");
}

TEST(Tracer, EndSpanSweepsAbandonedChildren)
{
    // A PowerCut unwinds past children without their endSpan; closing
    // the enclosing span must sweep them off the stack.
    Tracer t;
    SpanId outer = t.beginSpan("ba", "sync", 0);
    t.beginSpan("ssd", "flush", 5);
    t.beginSpan("ftl", "write", 7);
    t.endSpan(outer, 50);
    EXPECT_EQ(t.currentSpan(), 0u);
}

TEST(Tracer, UnknownSpanIdPanics)
{
    Tracer t;
    EXPECT_THROW(t.endSpan(42, 0), SimPanic);
    t.endSpan(0, 0); // id 0 = disabled tracer handle: a no-op
}

TEST(Tracer, RuntimeDisabledRecordsNothing)
{
    Tracer t;
    t.setEnabled(false);
    EXPECT_EQ(t.beginSpan("ssd", "blockRead", 0), 0u);
    t.phase("media", 0, 10);
    t.instant("tp", "wc.evict", 5);
    EXPECT_TRUE(t.events().empty());
    EXPECT_EQ(t.currentSpan(), 0u);

    t.setEnabled(true);
    EXPECT_NE(t.beginSpan("ssd", "blockRead", 0), 0u);
    EXPECT_EQ(t.events().size(), 1u);
}

TEST(Tracer, ClearKeepsInternedStrings)
{
    Tracer t;
    SpanId sp = t.beginSpan("ssd", "blockRead", 0);
    std::uint32_t cat = t.events()[0].cat;
    t.endSpan(sp, 10);
    t.clear();
    EXPECT_TRUE(t.events().empty());
    EXPECT_EQ(t.string(cat), "ssd");
}

TEST(TracepointHit, NullSinksAreFine)
{
    tracepointHit(nullptr, nullptr, Tp::wcEvict, 0);
    Tracer t;
    tracepointHit(nullptr, &t, Tp::baSync, 7);
    ASSERT_EQ(t.events().size(), 1u);
    EXPECT_EQ(t.string(t.events()[0].name), "ba.sync");
}

TEST(TracepointHit, InstantSurvivesPowerCut)
{
    // The trace instant is recorded BEFORE FaultInjector::hit() so a
    // thrown PowerCut still leaves the protocol edge in the trace.
    FaultPlan plan;
    FaultInjector faults(plan);
    faults.armCrashAtHit(0);
    Tracer t;
    EXPECT_THROW(tracepointHit(&faults, &t, Tp::ssdFlush, 3), PowerCut);
    ASSERT_EQ(t.events().size(), 1u);
    EXPECT_EQ(t.string(t.events()[0].name), "ssd.flush");
    EXPECT_EQ(t.events()[0].start, 3u);
}

namespace
{

/** A representative op stream across the block and BA paths. */
void
driveOps(ba::TwoBSsd &dev)
{
    std::vector<std::uint8_t> buf(8192, 0x5a);
    std::vector<std::uint8_t> out(8192);
    sim::Tick t = sOf(1);
    dev.baPin(t, 1, 0, 0, 16 * 4096);
    t += msOf(1);
    for (int i = 0; i < 8; ++i) {
        dev.blockWrite(t, 256 * MiB + std::uint64_t(i) * 64 * 4096, buf);
        t += msOf(1);
        dev.blockRead(t, 256 * MiB + std::uint64_t(i) * 64 * 4096, out);
        t += msOf(1);
        t = dev.mmioWrite(t, 0, std::span(buf).first(256));
        t = dev.baSyncRange(t, 1, 0, 256);
        t += msOf(1);
    }
    dev.mmioRead(t, 0, std::span(out).first(512));
    t += msOf(1);
    dev.baReadDma(t, 1, std::span(out).first(4096));
    dev.baFlush(t + msOf(1), 1);
}

} // namespace

TEST(Tracer, PhasesPartitionTheirSpanOnTheRealStack)
{
    // The reconciliation invariant behind trace_dump --validate: every
    // span's phases sum to its end-to-end duration within one tick.
    ba::TwoBSsd dev;
    Tracer t;
    dev.installTracer(&t);
    driveOps(dev);

    std::size_t spansWithPhases = 0;
    const auto &events = t.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &e = events[i];
        if (e.kind != Tracer::Event::Kind::span)
            continue;
        std::uint64_t sum = 0;
        bool any = false;
        for (const auto &p : events) {
            if (p.kind == Tracer::Event::Kind::phase &&
                p.parent == e.id) {
                sum += p.end - p.start;
                any = true;
            }
        }
        if (!any)
            continue;
        ++spansWithPhases;
        std::uint64_t spanTicks = e.end - e.start;
        std::uint64_t diff =
            spanTicks > sum ? spanTicks - sum : sum - spanTicks;
        EXPECT_LE(diff, 1u)
            << t.string(e.cat) << "." << t.string(e.name) << " span "
            << e.id << ": phases sum " << sum << " vs span "
            << spanTicks;
    }
    EXPECT_GT(spansWithPhases, 30u);
}

TEST(Tracer, SameSeedTracesAreByteIdentical)
{
    auto run = [] {
        ba::TwoBSsd dev;
        Tracer t;
        dev.installTracer(&t);
        driveOps(dev);
        std::ostringstream os;
        t.writeChromeJson(os);
        return os.str();
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Tracer, ChromeJsonTsIsMonotonic)
{
    ba::TwoBSsd dev;
    Tracer t;
    dev.installTracer(&t);
    driveOps(dev);
    std::ostringstream os;
    t.writeChromeJson(os);
    const std::string json = os.str();

    // Scan the emitted "ts": fields in file order.
    double last = -1.0;
    std::size_t pos = 0, seen = 0;
    while ((pos = json.find("\"ts\": ", pos)) != std::string::npos) {
        pos += 6;
        double ts = std::strtod(json.c_str() + pos, nullptr);
        EXPECT_GE(ts, last);
        last = ts;
        ++seen;
    }
    EXPECT_GT(seen, 100u);
    // And the dur fields are non-negative by construction (unsigned
    // ticks), so any "dur": -  substring would be a format bug.
    EXPECT_EQ(json.find("\"dur\": -"), std::string::npos);
}

TEST(Tracer, PhaseBreakdownAggregates)
{
    Tracer t;
    SpanId sp = t.beginSpan("ssd", "blockWrite", 0);
    t.phase("frontend", 0, 10);
    t.phase("xfer", 10, 14);
    t.endSpan(sp, 14);
    sp = t.beginSpan("ssd", "blockWrite", 100);
    t.phase("frontend", 100, 130);
    t.phase("xfer", 130, 134);
    t.endSpan(sp, 134);

    auto rows = t.phaseBreakdown();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "frontend");
    EXPECT_EQ(rows[0].count, 2u);
    EXPECT_EQ(rows[0].totalTicks, 40u);
    EXPECT_EQ(rows[0].minTicks, 10u);
    EXPECT_EQ(rows[0].maxTicks, 30u);
    EXPECT_EQ(rows[1].name, "xfer");
    EXPECT_EQ(rows[1].totalTicks, 8u);
}

TEST(TraceContext, TopLevelSpansAdoptThePushedContext)
{
    Tracer t;
    t.setStream(3);
    const std::uint64_t parentGid = (std::uint64_t(7) + 1) << 32 | 9;
    t.pushContext(TraceContext{42, parentGid});

    // Top level: adopts the context's trace and stitches via xparent.
    SpanId outer = t.beginSpan("shard", "exec", 100);
    // Nested: inherits from its LOCAL parent, no xparent link.
    SpanId inner = t.beginSpan("wal", "commit", 110);
    t.endSpan(inner, 120);
    t.endSpan(outer, 130);
    t.popContext();
    EXPECT_EQ(t.contextDepth(), 0u);

    // Outside any context, spans carry no trace.
    SpanId bare = t.beginSpan("ftl", "gc", 200);
    t.endSpan(bare, 210);

    const auto &ev = t.events();
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_EQ(ev[0].trace, 42u);
    EXPECT_EQ(ev[0].xparent, parentGid);
    EXPECT_EQ(ev[0].gid, (std::uint64_t(3) + 1) << 32 | 1);
    EXPECT_EQ(ev[1].trace, 42u);
    EXPECT_EQ(ev[1].xparent, 0u);
    EXPECT_EQ(ev[1].parent, outer);
    EXPECT_EQ(ev[2].trace, 0u);
    EXPECT_EQ(ev[2].xparent, 0u);
}

TEST(TraceContext, RecordSpanIsStackFreeAndOverlaps)
{
    // Request-root spans overlap (many routed ops in flight), so they
    // are recorded complete, outside the implicit stack, with their
    // identity supplied entirely by the TraceContext and minted gid.
    Tracer t;
    const std::uint64_t g1 = t.mintGid();
    const std::uint64_t g2 = t.mintGid();
    ASSERT_NE(g1, 0u);
    ASSERT_NE(g1, g2);

    // Overlapping roots, recorded out of order: no parent fabrication.
    t.recordSpan("router", "set", 100, 300, TraceContext{1, 0}, g1);
    t.recordSpan("router", "get", 150, 250, TraceContext{2, 0}, g2);
    t.recordSpan("router", "doorbell", 100, 120, TraceContext{1, g1});

    const auto &ev = t.events();
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_EQ(ev[0].parent, 0u);
    EXPECT_EQ(ev[0].gid, g1);
    EXPECT_EQ(ev[0].trace, 1u);
    EXPECT_EQ(ev[1].parent, 0u);
    EXPECT_EQ(ev[1].trace, 2u);
    // The child names its parent through xparent, and a gid of 0
    // mints a fresh one.
    EXPECT_EQ(ev[2].xparent, g1);
    EXPECT_NE(ev[2].gid, 0u);
    EXPECT_EQ(t.currentSpan(), 0u);
}

TEST(TraceContext, AppendRebasesLocalIdsButKeepsGlobalLinks)
{
    // Host tracer (stream 0) holds the request root; a shard tracer
    // (stream 1) holds the execution span stitched via xparent. After
    // the merge the local id space is rebased but the global fields
    // pass through verbatim, so the tree keeps resolving.
    Tracer host;
    host.setStream(0);
    const std::uint64_t rootGid = host.mintGid();
    host.recordSpan("router", "set", 0, 100, TraceContext{5, 0},
                    rootGid);

    Tracer shard;
    shard.setStream(1);
    shard.pushContext(TraceContext{5, rootGid});
    SpanId exec = shard.beginSpan("shard", "exec", 10);
    shard.endSpan(exec, 60);
    shard.popContext();

    Tracer merged;
    merged.append(host);
    merged.append(shard);

    const auto &ev = merged.events();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].gid, rootGid);
    // Rebased local ids stay unique...
    EXPECT_NE(ev[0].id, ev[1].id);
    // ...and the cross-tracer link still resolves by gid.
    EXPECT_EQ(ev[1].trace, 5u);
    EXPECT_EQ(ev[1].xparent, rootGid);
    EXPECT_NE(ev[1].gid, rootGid);
}

TEST(TraceContext, RuntimeDisabledTracerAllocatesNothing)
{
    // The satellite guarantee: a constructed-but-disabled tracer adds
    // zero allocations on the hot path - no events, no context stack
    // growth, gids not minted.
    Tracer t;
    t.setEnabled(false);
    EXPECT_EQ(t.mintGid(), 0u);
    t.pushContext(TraceContext{9, 1});
    EXPECT_EQ(t.contextDepth(), 0u);
    t.recordSpan("router", "set", 0, 10, TraceContext{9, 0});
    SpanId sp = t.beginSpan("shard", "exec", 0);
    t.endSpan(sp, 10);
    t.popContext();
    EXPECT_EQ(t.events().capacity(), 0u);
    EXPECT_EQ(t.currentContext().trace, 0u);
}

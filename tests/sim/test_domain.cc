/**
 * @file
 * Domain + ParallelEngine tests: channel/lookahead contracts, window
 * safety, the deterministic mailbox ordering property, and
 * serial-vs-threaded equivalence of the engine itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/domain.hh"
#include "sim/engine.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

using namespace bssd::sim;

TEST(Domain, StandaloneActsAsQueueOwner)
{
    Domain d("solo");
    int hits = 0;
    d.queue().schedule(10, [&] { ++hits; });
    d.queue().runUntil(20);
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(d.now(), 20u);
    EXPECT_EQ(d.id(), Domain::kNoId);
    EXPECT_EQ(d.engine(), nullptr);
}

TEST(Domain, PostWithoutEngineOrChannelPanics)
{
    Domain a("a"), b("b");
    EXPECT_THROW(a.post(b, 100, {}, [] {}), SimPanic);

    ParallelEngine eng(1);
    eng.add(a);
    eng.add(b);
    // Registered but not connected: still an error.
    EXPECT_THROW(a.post(b, 100, {}, [] {}), SimPanic);
}

TEST(Domain, PostViolatingLookaheadPanics)
{
    Domain a("a"), b("b");
    ParallelEngine eng(1);
    eng.add(a);
    eng.add(b);
    eng.connect(a, b, 50);
    EXPECT_THROW(a.post(b, 49, {}, [] {}), SimPanic);
    a.post(b, 50, {}, [] {}); // exactly the lookahead: allowed
    eng.run(100);
    EXPECT_EQ(eng.messagesDelivered(), 1u);
}

TEST(ParallelEngine, ConnectValidation)
{
    Domain a("a"), b("b"), stranger("s");
    ParallelEngine eng(1);
    eng.add(a);
    eng.add(b);
    EXPECT_THROW(eng.connect(a, stranger, 10), SimPanic);
    EXPECT_THROW(eng.connect(a, a, 10), SimPanic);
    EXPECT_THROW(eng.connect(a, b, 0), SimPanic);
    EXPECT_THROW(eng.add(a), SimPanic); // double registration
}

TEST(ParallelEngine, RunAdvancesEveryClockToHorizon)
{
    Domain a("a"), b("b");
    ParallelEngine eng(1);
    eng.add(a);
    eng.add(b);
    int hits = 0;
    a.queue().schedule(40, [&] { ++hits; });
    EXPECT_EQ(eng.run(100), 1u);
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(a.now(), 100u);
    EXPECT_EQ(b.now(), 100u);
    EXPECT_EQ(eng.now(), 100u);
}

TEST(ParallelEngine, CrossDomainPingPong)
{
    constexpr Tick kHop = 100;
    Domain ping("ping"), pong("pong");
    ParallelEngine eng(1);
    eng.add(ping);
    eng.add(pong);
    eng.connect(ping, pong, kHop);
    eng.connect(pong, ping, kHop);

    std::vector<Tick> pongTimes;
    std::vector<Tick> pingTimes;
    std::function<void()> volley = [&] {
        // Runs in pong's domain.
        pongTimes.push_back(pong.now());
        if (pongTimes.size() < 4) {
            pong.post(ping, pong.now() + kHop, {}, [&] {
                pingTimes.push_back(ping.now());
                ping.post(pong, ping.now() + kHop, {}, volley);
            });
        }
    };
    ping.queue().schedule(10, [&] {
        pingTimes.push_back(ping.now());
        ping.post(pong, 110, {}, volley);
    });
    eng.run(usOf(10));

    EXPECT_EQ(pongTimes, (std::vector<Tick>{110, 310, 510, 710}));
    EXPECT_EQ(pingTimes, (std::vector<Tick>{10, 210, 410, 610}));
    EXPECT_EQ(eng.messagesDelivered(), 7u);
}

TEST(ParallelEngine, PanicInsideDomainPropagates)
{
    for (unsigned threads : {1u, 2u}) {
        Domain a("a"), b("b");
        ParallelEngine eng(threads);
        eng.add(a);
        eng.add(b);
        a.queue().schedule(10, [] { panic("boom"); });
        EXPECT_THROW(eng.run(100), SimPanic);
    }
}

namespace
{

/** (fire tick, sender id, payload seq) as observed by the target. */
using Obs = std::tuple<Tick, std::uint32_t, std::uint64_t>;

/**
 * The mailbox-ordering property harness: K sender domains each fire
 * local events at seeded-random ticks and post to one target with
 * seeded-random extra delay; the target records arrival order.
 */
std::vector<Obs>
mailboxScenario(unsigned threads, std::uint64_t seed)
{
    constexpr unsigned kSenders = 5;
    constexpr Tick kLook = 75;

    Domain target("target");
    std::vector<std::unique_ptr<Domain>> senders;
    ParallelEngine eng(threads);
    eng.add(target);
    for (unsigned s = 0; s < kSenders; ++s) {
        senders.push_back(
            std::make_unique<Domain>("s" + std::to_string(s)));
        eng.add(*senders.back());
        eng.connect(*senders.back(), target, kLook);
    }

    std::vector<Obs> observed;
    std::uint64_t payload = 0;
    Rng rng(seed);
    for (unsigned s = 0; s < kSenders; ++s) {
        Domain &dom = *senders[s];
        for (int e = 0; e < 40; ++e) {
            const Tick at = rng.nextRange(1, 4000);
            const Tick extra = rng.nextBelow(200);
            const std::uint64_t tag = payload++;
            const std::uint32_t sid = s;
            (void)tag;
            dom.queue().schedule(at, [&, extra, sid] {
                Domain &d = *senders[sid];
                const Tick when = d.now() + kLook + extra;
                // The engine's ordering key is the send sequence, so
                // record the sender's counter at post time.
                const std::uint64_t seq = d.messagesSent();
                d.post(target, when, {}, [&, when, seq, sid] {
                    observed.emplace_back(when, sid, seq);
                });
            });
        }
    }
    eng.run(usOf(100));
    return observed;
}

} // namespace

TEST(ParallelEngine, MailboxOrderingProperty)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        const std::vector<Obs> serial = mailboxScenario(1, seed);
        ASSERT_EQ(serial.size(), 5u * 40u);

        // Delivery must be sorted by (tick, sender id, sender seq) —
        // exactly the contract's deterministic mailbox key.
        std::vector<Obs> expect = serial;
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(serial, expect);

        // And every thread count observes the identical sequence.
        EXPECT_EQ(mailboxScenario(2, seed), serial);
        EXPECT_EQ(mailboxScenario(8, seed), serial);
    }
}

TEST(Domain, ContextPostDeliversContextInTheTargetDomain)
{
    Domain host("host"), shard("shard");
    ParallelEngine eng(1);
    eng.add(host);
    eng.add(shard);
    eng.connect(host, shard, 10);

    Tracer tracer;
    shard.setTracer(&tracer);

    const TraceContext ctx{7, (std::uint64_t(1) << 32) | 3};
    std::size_t depthInside = 0;
    host.queue().schedule(5, [&] {
        host.post(shard, 20, ctx, [&] {
            // The request identity is in scope while the callback runs
            // in the TARGET domain: a top-level span stitches back.
            depthInside = tracer.contextDepth();
            constexpr Tick kExec = 5;
            SpanId sp = tracer.beginSpan("shard", "exec", shard.now());
            tracer.endSpan(sp, shard.now() + kExec);
        });
    });
    eng.run(100);

    EXPECT_EQ(depthInside, 1u);
    EXPECT_EQ(tracer.contextDepth(), 0u); // popped after delivery
    ASSERT_EQ(tracer.events().size(), 1u);
    EXPECT_EQ(tracer.events()[0].trace, 7u);
    EXPECT_EQ(tracer.events()[0].xparent, ctx.parent);
}

TEST(Domain, EmptyContextPostIsAPlainPost)
{
    Domain a("a"), b("b");
    ParallelEngine eng(1);
    eng.add(a);
    eng.add(b);
    eng.connect(a, b, 10);

    Tracer tracer;
    b.setTracer(&tracer);
    std::size_t depthInside = ~std::size_t(0);
    a.queue().schedule(1, [&] {
        a.post(b, 20, TraceContext{}, [&] {
            depthInside = tracer.contextDepth();
        });
    });
    eng.run(100);
    EXPECT_EQ(depthInside, 0u);
}

namespace
{

/** Fixed two-domain feedback workload for the telemetry tests. */
void
pingPongLoad(Domain &a, Domain &b, ParallelEngine &eng)
{
    constexpr Tick kToB = 50;  // a → b channel lookahead
    constexpr Tick kToA = 100; // b → a channel lookahead
    eng.add(a);
    eng.add(b);
    eng.connect(a, b, kToB);
    eng.connect(b, a, kToA);
    // Staggered local events on both sides, each posting across: the
    // windows keep being bounded by both channels in turn.
    for (Tick t = 10; t < 3000; t += 70) {
        a.queue().schedule(t, [&a, &b] {
            a.post(b, a.now() + kToB, {}, [] {});
        });
    }
    for (Tick t = 30; t < 3000; t += 110) {
        b.queue().schedule(t, [&a, &b] {
            b.post(a, b.now() + kToA, {}, [] {});
        });
    }
}

/** Serialized engine telemetry (metrics JSON) for one thread count. */
std::string
telemetryAt(unsigned threads)
{
    Domain a("alpha"), b("beta");
    ParallelEngine eng(threads);
    pingPongLoad(a, b, eng);
    eng.run(usOf(5));

    MetricRegistry reg;
    eng.registerMetrics(reg, "engine");
    std::ostringstream os;
    reg.writeJson(os);
    return os.str();
}

} // namespace

TEST(ParallelEngine, TelemetryMeasuresTheScheduleNotTheThreads)
{
    Domain a("alpha"), b("beta");
    ParallelEngine eng(1);
    pingPongLoad(a, b, eng);
    eng.run(usOf(5));

    // Every fired event is attributed to exactly one domain.
    EXPECT_EQ(eng.domainEventsFired(0) + eng.domainEventsFired(1),
              eng.eventsFired());
    // Each round, one domain's window is the widest; only the other
    // can stall, so the two never both accumulate in one round - and
    // with asymmetric lookaheads someone must have waited.
    EXPECT_GT(eng.stallTicks(0) + eng.stallTicks(1), 0u);
    // Window-bound attribution partitions the rounds.
    EXPECT_EQ(eng.horizonBoundRounds(0) + eng.channelBoundRounds(0, 1),
              eng.rounds());
    EXPECT_EQ(eng.horizonBoundRounds(1) + eng.channelBoundRounds(1, 0),
              eng.rounds());
    // The registry surface exposes the same numbers.
    MetricRegistry reg;
    eng.registerMetrics(reg, "engine");
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_NE(snap.find("engine.alpha.stall_ticks"), nullptr);
    EXPECT_EQ(snap.find("engine.alpha.stall_ticks")->value,
              static_cast<double>(eng.stallTicks(0)));
    ASSERT_NE(snap.find("engine.beta.bound_from_alpha"), nullptr);
}

TEST(ParallelEngine, TelemetryIsIdenticalAcrossThreadCounts)
{
    const std::string serial = telemetryAt(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(telemetryAt(2), serial);
    EXPECT_EQ(telemetryAt(4), serial);
}

TEST(ParallelEngine, TraceRoundsRecordsOneSpanPerRound)
{
    Domain a("alpha"), b("beta");
    ParallelEngine eng(1);
    Tracer rounds;
    eng.traceRounds(&rounds);
    pingPongLoad(a, b, eng);
    eng.run(usOf(5));

    ASSERT_EQ(rounds.events().size(), eng.rounds());
    for (const auto &e : rounds.events()) {
        EXPECT_EQ(e.kind, Tracer::Event::Kind::span);
        EXPECT_EQ(rounds.string(e.cat), "engine");
        EXPECT_EQ(rounds.string(e.name), "round");
        EXPECT_LE(e.start, e.end);
    }
}

TEST(ParallelEngine, PoolIsNeverWiderThanTheDomainCount)
{
    // Eight threads asked for over three domains: the caller and two
    // workers run the same schedule as a serial run (the telemetry
    // covers every domain's events, stalls and window bounds).
    auto runAt = [](unsigned threads) {
        constexpr Tick kToC = 60; // a → c channel lookahead
        Domain a("alpha"), b("beta"), c("gamma");
        ParallelEngine eng(threads);
        pingPongLoad(a, b, eng);
        eng.add(c);
        eng.connect(a, c, kToC);
        for (Tick t = 20; t < 3000; t += 130) {
            a.queue().schedule(t, [&a, &c] {
                a.post(c, a.now() + kToC, {}, [] {});
            });
        }
        eng.run(usOf(5));
        MetricRegistry reg;
        eng.registerMetrics(reg, "engine");
        std::ostringstream os;
        reg.writeJson(os);
        return std::make_pair(eng.threads(), os.str());
    };
    const auto serial = runAt(1);
    const auto threaded = runAt(8);
    EXPECT_EQ(serial.first, 1u);
    EXPECT_EQ(threaded.first, 3u);
    EXPECT_EQ(threaded.second, serial.second);
}

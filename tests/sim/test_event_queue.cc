/**
 * @file
 * Unit tests for the discrete-event kernel: (tick, schedule) firing
 * order, the window and run-until bounds, and the callback slab —
 * captures released once their event fires, slots reused without
 * disturbing same-tick order, and growth while a callback runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

using namespace bssd::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runWindow(maxTick);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(3); });
    q.runWindow(maxTick);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickOrderSurvivesSlotReuse)
{
    // Slot indices get recycled; the separate sequence counter must
    // still break same-tick ties in scheduling order.
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(-1); });
    q.schedule(1, [&] { order.push_back(-2); });
    q.runUntil(1); // firing frees both slots for the next three
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(3); });
    q.runWindow(maxTick);
    EXPECT_EQ(order, (std::vector<int>{-1, -2, 1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(21, [&] { ++fired; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.schedule(q.now() + nsOf(10), chain);
    };
    q.schedule(0, chain);
    q.runWindow(maxTick);
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, FiredCallbackStateReleasedBeforeInvoke)
{
    // The slab slot must not pin the callback's captures after the
    // event has fired.
    EventQueue q;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    q.schedule(10, [token] { (void)*token; });
    token.reset();
    q.runWindow(maxTick);
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, LargeCapturesFallBackToHeap)
{
    EventQueue q;
    struct Big
    {
        std::uint64_t payload[16]; // 128 B > inline budget
    };
    Big big{};
    big.payload[0] = 1;
    big.payload[15] = 99;
    std::uint64_t seen = 0;
    q.schedule(5, [big, &seen] { seen = big.payload[0] + big.payload[15]; });
    q.runWindow(maxTick);
    EXPECT_EQ(seen, 100u);
}

TEST(EventQueue, ScheduleInPastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runWindow(maxTick);
    EXPECT_THROW(q.schedule(5, [] {}), SimPanic);
}

TEST(EventQueue, TotalFiredCounts)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.schedule(99, [] {});
    EXPECT_EQ(q.runWindow(99), 5u);
    EXPECT_EQ(q.totalFired(), 5u);
    EXPECT_EQ(q.runWindow(maxTick), 1u);
    EXPECT_EQ(q.totalFired(), 6u);
}

TEST(EventQueue, AdvanceToMovesTimeForward)
{
    EventQueue q;
    q.advanceTo(100);
    EXPECT_EQ(q.now(), 100u);
    q.advanceTo(100); // advancing to the current tick is a no-op
    EXPECT_EQ(q.now(), 100u);
    EXPECT_THROW(q.advanceTo(50), SimPanic);
    EXPECT_THROW(q.runUntil(99), SimPanic);
    EXPECT_THROW(q.runUntil(maxTick), SimPanic); // no tick past it
}

TEST(EventQueue, CompactionAtAdvanceToBoundary)
{
    // A 2,049-event population scheduled exactly at the advanceTo
    // target: runUntil of that boundary fires all of it, in schedule
    // order, and leaves no heap entry behind (there is nothing to
    // compact). advanceTo the boundary it already reached is a no-op,
    // moving backwards still panics, and the freed slots serve the
    // next population at the same tick.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 2049; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    EXPECT_EQ(q.pending(), 2049u);
    EXPECT_EQ(q.runUntil(100), 2049u);
    ASSERT_EQ(order.size(), 2049u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.nextEventTime(), maxTick);
    EXPECT_EQ(q.now(), 100u);
    q.advanceTo(100);
    EXPECT_EQ(q.now(), 100u);
    EXPECT_THROW(q.advanceTo(99), SimPanic);

    order.clear();
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(100, [&] { order.push_back(2); });
    EXPECT_EQ(q.runUntil(100), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.totalFired(), 2051u);
}

TEST(EventQueue, SlabGrowsWhileFiring)
{
    // One callback schedules 12,000 events, a third of them with a
    // capture too large for the inline buffer, so the slab reallocates
    // under the running callback. Each event must fire once, in
    // (tick, schedule) order, and each capture must be destroyed once.
    struct Probe
    {
        int *destroyed;
        bool live = true;
        explicit Probe(int *d) : destroyed(d) {}
        Probe(Probe &&o) noexcept : destroyed(o.destroyed)
        {
            o.live = false;
        }
        Probe &operator=(Probe &&) = delete;
        ~Probe()
        {
            if (live)
                ++*destroyed;
        }
    };
    struct Pad
    {
        std::uint64_t words[8]; // 64 B: past kInlineBytes with the probe
    };
    constexpr int kEvents = 12'000;
    EventQueue q;
    int destroyed = 0;
    std::vector<std::pair<Tick, int>> fired;
    q.schedule(10, [&] {
        for (int i = 0; i < kEvents; ++i) {
            const Tick when = 10 + static_cast<Tick>(i * 7919 % 97);
            auto record = [&fired, &q, i] { fired.emplace_back(q.now(), i); };
            if (i % 3 == 0) {
                q.schedule(when, [record, p = Probe(&destroyed), pad = Pad{}] {
                    (void)pad;
                    record();
                });
            } else {
                q.schedule(when, [record, p = Probe(&destroyed)] { record(); });
            }
        }
    });
    EXPECT_EQ(q.runWindow(maxTick), std::size_t(kEvents) + 1);
    ASSERT_EQ(fired.size(), std::size_t(kEvents));
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(destroyed, kEvents);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(InlineCallback, MoveTransfersOwnership)
{
    int hits = 0;
    InlineCallback a = [&hits] { ++hits; };
    InlineCallback b = std::move(a);
    EXPECT_FALSE(a); // NOLINT: moved-from state is specified empty
    EXPECT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, HeapFallbackDestroysExactlyOnce)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    struct Pad
    {
        std::uint64_t bytes[12];
    };
    {
        InlineCallback cb = [token, pad = Pad{}] { (void)pad; };
        token.reset();
        EXPECT_FALSE(watch.expired());
        InlineCallback cb2 = std::move(cb);
        cb2();
    }
    EXPECT_TRUE(watch.expired());
}

// ---- runWindow / nextEventTime (parallel-engine work loop) ----

TEST(EventQueue, NextEventTimeIsEarliestPending)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventTime(), maxTick);
    q.schedule(20, [] {});
    q.schedule(10, [] {});
    EXPECT_EQ(q.nextEventTime(), 10u);
    q.runUntil(10);
    EXPECT_EQ(q.nextEventTime(), 20u);
    q.runUntil(20);
    EXPECT_EQ(q.nextEventTime(), maxTick);
}

TEST(EventQueue, RunWindowBoundIsStrict)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(19, [&] { order.push_back(2); });
    q.schedule(20, [&] { order.push_back(3); });
    EXPECT_EQ(q.runWindow(20), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    // now() stays at the last fired event, not the window edge: an
    // engine barrier may still deliver messages at tick 20.
    EXPECT_EQ(q.now(), 19u);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.runWindow(21), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunWindowBatchPreservesScheduleOrder)
{
    // Same-tick events fire in schedule order, and a same-tick event
    // scheduled by one of them fires after every event already queued
    // for that tick.
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] {
        order.push_back(1);
        q.schedule(5, [&] { order.push_back(4); });
    });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(3); });
    EXPECT_EQ(q.runWindow(6), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

/**
 * @file
 * Unit tests for timed resource calendars.
 */

#include <gtest/gtest.h>

#include "sim/resource.hh"

using namespace bssd::sim;

TEST(FifoResource, BackToBackQueues)
{
    FifoResource r("r");
    auto a = r.reserve(0, 10);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(a.end, 10u);
    // Second request ready at t=3 must queue behind the first.
    auto b = r.reserve(3, 5);
    EXPECT_EQ(b.start, 10u);
    EXPECT_EQ(b.end, 15u);
    EXPECT_EQ(b.latencyFrom(3), 12u);
}

TEST(FifoResource, IdleGapStartsImmediately)
{
    FifoResource r;
    r.reserve(0, 10);
    auto b = r.reserve(100, 5);
    EXPECT_EQ(b.start, 100u);
    EXPECT_EQ(b.end, 105u);
}

TEST(FifoResource, TracksUtilization)
{
    FifoResource r;
    r.reserve(0, 10);
    r.reserve(0, 20);
    EXPECT_EQ(r.busyTime(), 30u);
    EXPECT_EQ(r.grants(), 2u);
    r.reset();
    EXPECT_EQ(r.busyTime(), 0u);
    EXPECT_EQ(r.nextFree(), 0u);
}

TEST(DrainingBuffer, AdmitsWhileSpaceRemains)
{
    // 1000-byte buffer draining at 1 byte/ns.
    DrainingBuffer buf(1000, Bandwidth{1.0});
    EXPECT_EQ(buf.admit(0, 400), 0u);
    EXPECT_EQ(buf.admit(0, 400), 0u);
    EXPECT_EQ(buf.occupancyAt(0), 800u);
}

TEST(DrainingBuffer, StallsWhenFull)
{
    DrainingBuffer buf(1000, Bandwidth{1.0});
    buf.admit(0, 1000);
    // Needs 500 bytes drained: ready at t=0, admitted at t=500.
    EXPECT_EQ(buf.admit(0, 500), 500u);
}

TEST(DrainingBuffer, DrainsOverTime)
{
    DrainingBuffer buf(1000, Bandwidth{2.0});
    buf.admit(0, 1000);
    EXPECT_EQ(buf.occupancyAt(250), 500u);
    EXPECT_EQ(buf.occupancyAt(500), 0u);
    EXPECT_EQ(buf.occupancyAt(9999), 0u);
}

TEST(DrainingBuffer, OversizedRequestStreamsThrough)
{
    DrainingBuffer buf(1000, Bandwidth{1.0});
    // 5000 bytes through a 1000-byte buffer: 4000 must drain first.
    Tick t = buf.admit(0, 5000);
    EXPECT_EQ(t, 4000u);
    EXPECT_EQ(buf.occupancyAt(t), 1000u);
}

TEST(DrainingBuffer, SaturatedWritesBecomeRateBound)
{
    DrainingBuffer buf(1000, Bandwidth{1.0});
    Tick t = 0;
    // Writing 500 bytes repeatedly: once full, the admit times must
    // space out at the drain rate (500 ns apart).
    t = buf.admit(t, 500);
    t = buf.admit(t, 500);
    Tick t3 = buf.admit(t, 500);
    Tick t4 = buf.admit(t3, 500);
    EXPECT_EQ(t3 - t, 500u);
    EXPECT_EQ(t4 - t3, 500u);
}

TEST(DrainingBuffer, DrainedAtReportsEmptyTime)
{
    DrainingBuffer buf(1000, Bandwidth{1.0});
    buf.admit(100, 600);
    EXPECT_EQ(buf.drainedAt(), 700u);
}

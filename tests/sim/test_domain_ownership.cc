/**
 * @file
 * Runtime domain-ownership sanitizer tests (BSSD_DOMAIN_CHECK).
 *
 * The sanitizer is the one enforcement of the domain discipline
 * (DESIGN.md section 16): rigs adopt their allocations into their
 * domain, every domain adopts its own event queue, the engine tracks
 * which domain each worker thread is executing, and BSSD_OWN_GUARD
 * panics on a cross-domain touch. These tests drive deliberate
 * violations - a foreign state touch and a schedule onto a foreign
 * queue (both must panic at every thread count) - and the sanctioned
 * mailbox path (must not), plus the exemptions the guard grants. In
 * release builds the whole suite skips - the macro compiles to
 * nothing there.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/domain.hh"
#include "sim/engine.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

using namespace bssd::sim;

namespace
{

#ifndef BSSD_DOMAIN_CHECK
TEST(DomainOwnership, CompiledOutInReleaseBuilds)
{
    // The no-op inline stubs must still be callable so instrumented
    // code compiles unchanged.
    Domain d("noop");
    long x = 0;
    d.adopt(&x, sizeof(x), "test.noop");
    BSSD_OWN_GUARD(&x);
    d.release(&x);
    EXPECT_EQ(Domain::current(), nullptr);
    GTEST_SKIP() << "BSSD_DOMAIN_CHECK not enabled in this build";
}
#else

/** Two connected domains with symmetric lookahead, plus an adopted
 *  counter owned by alpha. */
struct Rig
{
    explicit Rig(unsigned threads)
        : eng(threads), alpha("alpha"), beta("beta")
    {
        eng.add(alpha);
        eng.add(beta);
        eng.connect(alpha, beta, 10);
        eng.connect(beta, alpha, 10);
        alpha.adopt(&counter, sizeof(counter), "test.counter");
    }

    ~Rig() { alpha.release(&counter); }

    ParallelEngine eng;
    Domain alpha;
    Domain beta;
    long counter = 0;
};

class DomainOwnershipThreads : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DomainOwnershipThreads, ForeignDomainTouchPanics)
{
    Rig rig(GetParam());
    // beta's window directly mutates alpha-owned state: exactly the
    // race the sanitizer exists to catch.
    rig.beta.queue().schedule(5, [&] {
        BSSD_OWN_GUARD(&rig.counter);
        rig.counter = 1;
    });
    EXPECT_THROW(rig.eng.run(100), SimPanic);
    EXPECT_EQ(rig.counter, 0) << "guard must fire before the mutation";
}

TEST_P(DomainOwnershipThreads, ForeignQueueSchedulePanics)
{
    Rig rig(GetParam());
    // beta's window schedules straight onto alpha's queue, bypassing
    // the mailbox: alpha adopted its queue, so schedule() panics
    // before the event lands.
    bool ran = false;
    rig.beta.queue().schedule(5, [&] {
        rig.alpha.queue().schedule(20, [&] { ran = true; });
    });
    EXPECT_THROW(rig.eng.run(100), SimPanic);
    EXPECT_FALSE(ran) << "the foreign event must never run";
}

TEST_P(DomainOwnershipThreads, MailboxMediatedAccessPasses)
{
    Rig rig(GetParam());
    // The sanctioned path: beta posts into alpha, and the callback
    // mutates alpha-owned state while a thread executes alpha's
    // window. The guard must stay silent.
    rig.beta.queue().schedule(5, [&] {
        rig.beta.post(rig.alpha, 20, {}, [&] {
            BSSD_OWN_GUARD(&rig.counter);
            rig.counter += 1;
        });
    });
    EXPECT_NO_THROW(rig.eng.run(100));
    EXPECT_EQ(rig.counter, 1);
}

INSTANTIATE_TEST_SUITE_P(Threads, DomainOwnershipThreads,
                         ::testing::Values(1u, 2u, 8u));

TEST(DomainOwnership, CurrentTracksExecutingWindow)
{
    // Outside any engine window there is no current domain.
    EXPECT_EQ(Domain::current(), nullptr);

    Rig rig(1);
    Domain *seen = nullptr;
    rig.alpha.queue().schedule(5, [&] { seen = Domain::current(); });
    rig.eng.run(50);
    EXPECT_EQ(seen, &rig.alpha);
    EXPECT_EQ(Domain::current(), nullptr);
}

TEST(DomainOwnership, OutsideEngineWindowsGuardIsInert)
{
    // Setup/teardown code (and standalone tests) touch rig state with
    // no window executing; the guard must pass.
    Rig rig(1);
    BSSD_OWN_GUARD(&rig.counter);
    rig.counter = 7;
    EXPECT_EQ(rig.counter, 7);
}

TEST(DomainOwnership, UnregisteredOwnerIsExempt)
{
    // A rig whose domain never joined an engine (the replicated-WAL
    // follower pattern) is driven by direct calls from a foreign
    // window by design; the guard must not fire on its spans.
    Rig rig(1);
    Domain standalone("follower");
    long followerState = 0;
    standalone.adopt(&followerState, sizeof(followerState),
                     "test.follower");
    rig.beta.queue().schedule(5, [&] {
        BSSD_OWN_GUARD(&followerState);
        followerState = 3;
    });
    EXPECT_NO_THROW(rig.eng.run(100));
    EXPECT_EQ(followerState, 3);
    standalone.release(&followerState);
}

TEST(DomainOwnership, ReleaseForgetsTheSpan)
{
    Rig rig(1);
    rig.alpha.release(&rig.counter);
    rig.beta.queue().schedule(5, [&] {
        BSSD_OWN_GUARD(&rig.counter);
        rig.counter = 2;
    });
    EXPECT_NO_THROW(rig.eng.run(100));
    EXPECT_EQ(rig.counter, 2);
    // Re-adopt so the rig dtor's release stays balanced.
    rig.alpha.adopt(&rig.counter, sizeof(rig.counter), "test.counter");
}

TEST(DomainOwnership, InnermostSpanWinsNestedLookup)
{
    // Nested adoption (rig containing an adopted member): the
    // innermost covering span decides ownership.
    Rig rig(1);
    struct Outer
    {
        long pad[4] = {};
        long inner = 0;
        long tail[4] = {};
    } outer;
    rig.beta.adopt(&outer, sizeof(outer), "test.outer");
    rig.alpha.adopt(&outer.inner, sizeof(outer.inner), "test.inner");

    // alpha touching outer.tail (beta-owned, outside the inner span)
    // must panic; alpha touching outer.inner must not.
    rig.alpha.queue().schedule(5, [&] {
        BSSD_OWN_GUARD(&outer.inner);
        outer.inner = 1;
    });
    EXPECT_NO_THROW(rig.eng.run(50));
    EXPECT_EQ(outer.inner, 1);

    rig.alpha.queue().schedule(60, [&] {
        BSSD_OWN_GUARD(&outer.tail[0]);
        outer.tail[0] = 1;
    });
    EXPECT_THROW(rig.eng.run(100), SimPanic);

    rig.alpha.release(&outer.inner);
    rig.beta.release(&outer);
}

#endif // BSSD_DOMAIN_CHECK

} // namespace

#include "sim/client.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace bssd::sim
{

namespace
{

/** a + b without wrapping past maxTick (arrivals saturate, never wrap). */
Tick
satAdd(Tick a, Tick b)
{
    return a > maxTick - b ? maxTick : a + b;
}

/**
 * double → Tick with saturation. An exponential draw can exceed 30x
 * its mean, so for a huge meanGap the product overflows the integer
 * range; the naive cast is UB and in practice wraps, which would send
 * an "open-loop" arrival stream backwards in time.
 */
Tick
tickFromDouble(double v)
{
    // maxTick itself is not exactly representable as a double; use the
    // largest double strictly below 2^64 as the clamp threshold.
    constexpr double limit = 18446744073709549568.0; // 2^64 - 2048
    if (!(v > 0.0))
        return 0;
    if (v >= limit)
        return maxTick;
    return static_cast<Tick>(v);
}

} // namespace

OpenLoopArrivals::OpenLoopArrivals(Tick meanGap, std::uint64_t seed)
    : OpenLoopArrivals(
          ArrivalSpec{ArrivalSpec::Kind::poisson, meanGap, 1, 0}, seed)
{
}

OpenLoopArrivals::OpenLoopArrivals(const ArrivalSpec &spec,
                                   std::uint64_t seed)
    : spec_(spec), rng_(seed)
{
    if (spec_.meanGap == 0)
        fatal("OpenLoopArrivals needs a positive mean gap");
    if (spec_.kind == ArrivalSpec::Kind::bursty && spec_.burstSize == 0)
        fatal("OpenLoopArrivals needs a positive burst size");
}

Tick
OpenLoopArrivals::expGap()
{
    // Inverse-CDF exponential sampling, saturating (see tickFromDouble).
    const double u = rng_.nextDouble();
    const double gap =
        -static_cast<double>(spec_.meanGap) * std::log1p(-u);
    return tickFromDouble(gap);
}

Tick
OpenLoopArrivals::next()
{
    if (spec_.kind == ArrivalSpec::Kind::poisson) {
        // The +1 keeps arrivals strictly advancing even when the draw
        // rounds to zero.
        at_ = satAdd(satAdd(at_, expGap()), 1);
    } else {
        if (generated_ == 0 || inBurst_ >= spec_.burstSize) {
            // Next burst start is exponential from the PREVIOUS burst
            // start (burst starts are themselves the Poisson process),
            // clamped forward so arrivals stay strictly increasing.
            const Tick start = satAdd(satAdd(burstStart_, expGap()), 1);
            burstStart_ = start;
            at_ = std::max(satAdd(at_, 1), start);
            inBurst_ = 1;
        } else {
            at_ = satAdd(satAdd(at_, spec_.burstGap), 1);
            ++inBurst_;
        }
    }
    ++generated_;
    return at_;
}

std::size_t
ClosedLoopDriver::addClient(ClientFn fn)
{
    clients_.push_back(Client{std::move(fn), Clock{}});
    return clients_.size() - 1;
}

std::uint64_t
ClosedLoopDriver::run(Tick horizon)
{
    if (clients_.empty())
        fatal("ClosedLoopDriver::run with no clients registered");

    if (horizon <= startAt_)
        fatal("ClosedLoopDriver horizon precedes the start time");
    latency_.reset();
    completedOps_ = 0;
    lastHorizon_ = horizon;
    for (auto &c : clients_) {
        c.clock.reset();
        c.clock.advanceTo(startAt_);
    }

    for (;;) {
        // Step the client with the smallest virtual clock.
        auto it = std::min_element(
            clients_.begin(), clients_.end(),
            [](const Client &a, const Client &b) {
                return a.clock.now() < b.clock.now();
            });
        if (it->clock.now() >= horizon)
            break;
        Tick before = it->clock.now();
        it->fn(it->clock);
        Tick after = it->clock.now();
        if (after <= before)
            panic("client operation did not advance its clock");
        if (after <= horizon) {
            ++completedOps_;
            latency_.record(after - before);
        }
    }
    return completedOps_;
}

double
ClosedLoopDriver::throughputOpsPerSec() const
{
    if (lastHorizon_ <= startAt_)
        return 0.0;
    return static_cast<double>(completedOps_) /
           toSec(lastHorizon_ - startAt_);
}

} // namespace bssd::sim

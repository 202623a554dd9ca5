#include "pcie/pcie_link.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace bssd::pcie
{

PcieLink::PcieLink(const PcieConfig &cfg) : cfg_(cfg)
{
    if (cfg_.readSplitBytes == 0 || cfg_.writeBurstBytes == 0)
        sim::fatal("PCIe split/burst granules must be non-zero");
}

sim::Tick
PcieLink::postedWrite(sim::Tick ready, std::uint64_t bytes)
{
    BSSD_OWN_GUARD(this);
    if (bytes == 0)
        return ready;
    sim::tracepointHit(faults_, tracer_, sim::Tp::pciePosted, ready);
    const std::uint64_t bursts =
        (bytes + cfg_.writeBurstBytes - 1) / cfg_.writeBurstBytes;
    postedBursts_.add(bursts);

    // The wire streams bursts back to back. The CPU pays the fixed
    // posting cost once per stream; bursts issued back-to-back with a
    // previous posted write (ready <= previous CPU-free time) continue
    // the stream and are pipeline-limited only.
    auto iv = wire_.reserve(ready, bursts * cfg_.postedWriteStreamCost);
    sim::Tick cpu_free;
    if (streamEnd_ != 0 && ready <= streamEnd_)
        cpu_free = iv.end;
    else
        cpu_free = std::max(ready + cfg_.postedWriteCost, iv.end);
    streamEnd_ = cpu_free;

    // Posted data lands in device memory a short propagation delay
    // after the last burst leaves the CPU.
    sim::Tick arrival = cpu_free + cfg_.postedPropagation;
    postedLanded_ = std::max(postedLanded_, arrival);
    return cpu_free;
}

sim::Tick
PcieLink::mmioRead(sim::Tick ready, std::uint64_t bytes)
{
    BSSD_OWN_GUARD(this);
    if (bytes == 0)
        return writeVerifyRead(ready);
    const std::uint64_t txns =
        (bytes + cfg_.readSplitBytes - 1) / cfg_.readSplitBytes;
    nonPosted_.add(txns);

    // Uncacheable reads stall the CPU: one outstanding transaction at
    // a time, each paying a full round trip.
    sim::Tick duration = txns * cfg_.nonPostedRoundTrip;
    auto iv = wire_.reserve(ready, duration);
    return iv.end;
}

sim::Tick
PcieLink::writeVerifyRead(sim::Tick ready)
{
    BSSD_OWN_GUARD(this);
    sim::tracepointHit(faults_, tracer_, sim::Tp::pcieVerify, ready);
    nonPosted_.add();
    // Non-posted reads are sequentialised behind posted writes at the
    // root complex: completion cannot precede the arrival of any write
    // posted before the read was issued.
    auto iv = wire_.reserve(ready, cfg_.verifyReadCost);
    return std::max(iv.end, postedLanded_);
}

sim::Interval
PcieLink::dma(sim::Tick ready, std::uint64_t bytes)
{
    BSSD_OWN_GUARD(this);
    dmaBytes_.add(bytes);
    return wire_.reserve(ready, cfg_.dmaBw.transferTime(bytes));
}

void
PcieLink::reset()
{
    BSSD_OWN_GUARD(this);
    wire_.reset();
    postedLanded_ = 0;
    streamEnd_ = 0;
    postedBursts_.reset();
    nonPosted_.reset();
    dmaBytes_.reset();
}

} // namespace bssd::pcie

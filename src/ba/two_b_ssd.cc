#include "ba/two_b_ssd.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bssd::ba
{

namespace
{

/** Conventional host physical base for the BAR1 window in tests. */
constexpr std::uint64_t bar1Base = 0xf000'0000ULL;

} // namespace

TwoBSsd::TwoBSsd(const ssd::SsdConfig &baseCfg, const BaConfig &baCfg)
    : baCfg_(baCfg),
      device_(baseCfg),
      buffer_(baCfg),
      bar_(baCfg.bufferBytes),
      wc_(host::WcConfig{},
          [this](sim::Tick ready, std::uint64_t off,
                 std::span<const std::uint8_t> data) {
              // WC eviction: post the burst on the link and enqueue
              // the bytes for arrival at the BA-buffer.
              sim::Tick cpu = device_.link().postedWrite(ready,
                                                         data.size());
              buffer_.postWrite(device_.link().postedDrainTime(), off,
                                data);
              return cpu;
          }),
      dma_(baCfg, device_.link()),
      recovery_(baCfg, buffer_),
      checker_(buffer_)
{
    // The vendor driver enumerates BAR1 and installs the LBA checker
    // in front of the block write path at initialisation time.
    bar_.enumerate(bar1Base);
    device_.setWriteGate([this](std::uint64_t off, std::uint64_t len) {
        return checker_.allowWrite(off, len);
    });
    // Power-cut delivery path for torn WC lines: bytes that had left
    // the CPU when the power died land in device DRAM directly.
    wc_.setCrashSink(
        [this](std::uint64_t off, std::span<const std::uint8_t> data) {
            buffer_.deviceWrite(off, data);
        });
    // The BA extensions (buffer, BAR, WC staging, DMA, recovery,
    // checker) are one rig with the base device: same domain.
    device_.domain().adopt(this, sizeof(*this), "ba.twob");
}

TwoBSsd::~TwoBSsd()
{
    device_.domain().release(this);
}

void
TwoBSsd::installFaultInjector(sim::FaultInjector *f)
{
    faults_ = f;
    device_.setFaultInjector(f);
    wc_.setFaultInjector(f);
    recovery_.setFaultInjector(f);
}

void
TwoBSsd::installTracer(sim::Tracer *t)
{
    tracer_ = t;
    device_.setTracer(t);
    wc_.setTracer(t);
    recovery_.setTracer(t);
}

void
TwoBSsd::registerMetrics(sim::MetricRegistry &reg,
                         const std::string &prefix) const
{
    device_.registerMetrics(reg, prefix + ".ssd");
    wc_.registerMetrics(reg, prefix + ".wc");
    reg.addGauge(prefix + ".buffer.entries", [this] {
        return static_cast<double>(buffer_.entryCount());
    });
    reg.addGauge(prefix + ".buffer.pending_bytes", [this] {
        return static_cast<double>(buffer_.pendingBytes());
    });
}

MapEntry
TwoBSsd::requireEntry(Eid eid) const
{
    auto e = buffer_.entry(eid);
    if (!e)
        throw BaError("unknown BA entry id " + std::to_string(eid));
    return *e;
}

sim::Interval
TwoBSsd::internalMove(sim::Tick ready, std::uint64_t bytes)
{
    return internal_.reserve(
        ready, baCfg_.internalSetup + baCfg_.internalBw.transferTime(bytes));
}

sim::Tick
TwoBSsd::mmioWrite(sim::Tick now, std::uint64_t windowOff,
                   std::span<const std::uint8_t> data)
{
    BSSD_OWN_GUARD(this);
    std::uint64_t off = bar_.translate(bar_.base() + windowOff,
                                       data.size());
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ba", "mmioWrite", now)
        : 0;
    sim::Tick end = wc_.write(now, off, data);
    if (tracer_) {
        tracer_->phase("store", now, end);
        tracer_->endSpan(sp, end);
    }
    return end;
}

sim::Tick
TwoBSsd::mmioRead(sim::Tick now, std::uint64_t windowOff,
                  std::span<std::uint8_t> out)
{
    std::uint64_t off = bar_.translate(bar_.base() + windowOff,
                                       out.size());
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ba", "mmioRead", now)
        : 0;
    const sim::Tick start = now;
    // An uncacheable read drains the WC buffers first (x86 ordering),
    // then pays the split non-posted transactions; it is ordered
    // behind all posted writes at the root complex.
    now = wc_.drainAll(now);
    sim::Tick done = device_.link().mmioRead(now, out.size());
    buffer_.settleTo(done);
    buffer_.read(off, out);
    if (tracer_) {
        if (now > start)
            tracer_->phase("wc_drain", start, now);
        tracer_->phase("mmio", now, done);
        tracer_->endSpan(sp, done);
    }
    return done;
}

sim::Interval
TwoBSsd::baPin(sim::Tick ready, Eid eid, std::uint64_t offset,
               std::uint64_t lba, std::uint64_t length)
{
    BSSD_OWN_GUARD(this);
    const std::uint32_t ps = device_.pageSize();
    if (lba + length > device_.capacityBytes())
        throw BaError("BA_PIN LBA range exceeds device capacity");
    // Pinning creates a durability obligation: refuse it up front if
    // the capacitors could not dump the whole buffer at power loss.
    if (!recovery_.canBackUp(buffer_.entryCount() + 1)) {
        throw BaError(
            "BA_PIN refused: power-loss dump would exceed the capacitor "
            "energy budget");
    }
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ba", "pin", ready)
        : 0;
    sim::tracepointHit(faults_, tracer_, sim::Tp::baPin, ready);
    // Table checks happen before any data movement.
    buffer_.addEntry(eid, offset, lba, length, ps);

    sim::Tick t = ready + baCfg_.apiCost;
    // NAND -> controller DRAM through the internal datapath, straight
    // into the pinned range; the media phase and the firmware copy
    // overlap.
    auto media = device_.ftl().read(t, lba / ps, length / ps,
                                    buffer_.span(offset, length));
    auto move = internalMove(t, length);
    sim::Tick end = std::max(media.end, move.end);
    if (tracer_) {
        tracer_->phase("api", ready, t);
        tracer_->phase("media", t, media.end);
        if (end > media.end)
            tracer_->phase("internal", media.end, end);
        tracer_->endSpan(sp, end);
    }
    return {ready, end};
}

sim::Interval
TwoBSsd::baFlush(sim::Tick ready, Eid eid)
{
    BSSD_OWN_GUARD(this);
    const MapEntry e = requireEntry(eid);
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ba", "flush", ready)
        : 0;
    sim::tracepointHit(faults_, tracer_, sim::Tp::baFlush, ready);
    const std::uint32_t ps = device_.pageSize();

    sim::Tick t = ready + baCfg_.apiCost;
    // The firmware cannot know which bytes are dirty (the CPU wrote
    // them behind its back), so the whole pinned range is written.
    buffer_.settleTo(t);
    auto move = internalMove(t, e.length);
    auto media = device_.ftl().write(t, e.startLba / ps, e.length / ps,
                                     buffer_.span(e.startOffset, e.length));
    // Success drops the entry (the paper's BA_FLUSH semantics).
    buffer_.removeEntry(eid);
    sim::Tick end = std::max(media.end, move.end);
    if (tracer_) {
        tracer_->phase("api", ready, t);
        tracer_->phase("media", t, media.end);
        if (end > media.end)
            tracer_->phase("internal", media.end, end);
        tracer_->endSpan(sp, end);
    }
    return {ready, end};
}

sim::Tick
TwoBSsd::baSync(sim::Tick now, Eid eid)
{
    BSSD_OWN_GUARD(this);
    const MapEntry e = requireEntry(eid);
    return baSyncRange(now, eid, e.startOffset, e.length);
}

sim::Tick
TwoBSsd::baSyncRange(sim::Tick now, Eid eid, std::uint64_t offset,
                     std::uint64_t len)
{
    BSSD_OWN_GUARD(this);
    const MapEntry e = requireEntry(eid);
    if (offset < e.startOffset ||
        offset + len > e.startOffset + e.length) {
        throw BaError("BA_SYNC range outside entry " + std::to_string(eid));
    }
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ba", "sync", now)
        : 0;
    const sim::Tick start = now;
    sim::tracepointHit(faults_, tracer_, sim::Tp::baSync, now);
    // (1) the pinned pages are known host-side from BA_GET_ENTRY_INFO
    //     at pin time; (2) clflush + mfence over them; (3) the
    //     write-verify read orders behind the posted data.
    now = wc_.flushRange(now, offset, len);
    sim::Tick durable = device_.link().writeVerifyRead(now);
    buffer_.settleTo(durable);
    if (tracer_) {
        tracer_->phase("wc_flush", start, now);
        tracer_->phase("verify", now, durable);
        tracer_->endSpan(sp, durable);
    }
    return durable;
}

sim::Tick
TwoBSsd::mmioSync(sim::Tick now, std::uint64_t windowOff,
                  std::uint64_t len)
{
    BSSD_OWN_GUARD(this);
    bar_.translate(bar_.base() + windowOff, len);
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ba", "mmioSync", now)
        : 0;
    const sim::Tick start = now;
    sim::tracepointHit(faults_, tracer_, sim::Tp::baSync, now);
    now = wc_.flushRange(now, windowOff, len);
    sim::Tick durable = device_.link().writeVerifyRead(now);
    buffer_.settleTo(durable);
    if (tracer_) {
        tracer_->phase("wc_flush", start, now);
        tracer_->phase("verify", now, durable);
        tracer_->endSpan(sp, durable);
    }
    return durable;
}

MapEntry
TwoBSsd::baGetEntryInfo(Eid eid) const
{
    return requireEntry(eid);
}

sim::Interval
TwoBSsd::baReadDma(sim::Tick ready, Eid eid, std::span<std::uint8_t> out)
{
    BSSD_OWN_GUARD(this);
    const MapEntry e = requireEntry(eid);
    if (out.size() == 0)
        throw BaError("BA_READ_DMA length must be non-zero");
    if (out.size() > e.length)
        throw BaError("BA_READ_DMA length exceeds the pinned range");
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ba", "readDma", ready)
        : 0;
    sim::Tick t = ready + baCfg_.apiCost;
    // The engine reads settled BA-buffer contents; in-flight posted
    // writes are ordered ahead of the DMA's descriptor fetch.
    buffer_.settleTo(t);
    buffer_.read(e.startOffset, out);
    auto iv = dma_.transfer(t, out.size());
    if (tracer_) {
        tracer_->phase("api", ready, t);
        tracer_->phase("dma", t, iv.end);
        tracer_->endSpan(sp, iv.end);
    }
    return {ready, iv.end};
}

PowerLossReport
TwoBSsd::powerLoss(sim::Tick t)
{
    PowerLossReport rep;
    // Settle/drop the posted queue first: torn WC-line bytes delivered
    // below are the NEWEST stores to their offsets and must not be
    // overwritten by older queued writes.
    sim::Tick drop_after = sim::maxTick;
    if (faults_ && faults_->postedDropWindow() > 0) {
        sim::Tick w = faults_->postedDropWindow();
        drop_after = t > w ? t - w : 0;
    }
    rep.postedBytesLost = buffer_.powerLossAt(t, drop_after);
    rep.wcBytesLost = wc_.dropAll();
    rep.dump = recovery_.powerLoss(t, events());
    return rep;
}

bool
TwoBSsd::powerRestore()
{
    return recovery_.restore();
}

} // namespace bssd::ba

#include "ssd/ssd_device.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bssd::ssd
{

SsdConfig
SsdConfig::dcSsd()
{
    SsdConfig c;
    c.name = "DC-SSD";
    c.nandCfg = nand::NandConfig::tlcDatacenter();
    // Frontend/firmware split sums to the calibrated 8/15.5/20 us
    // command overheads, so QD1 latencies are unchanged.
    c.readFrontend = sim::usOf(6);
    c.fwReadCost = sim::usOf(2);
    c.writeFrontend = sim::usOf(13);
    c.fwWriteCost = sim::usOf(2.5);
    c.flushCost = sim::usOf(18);
    c.fwFlushCost = sim::usOf(2);
    c.writeBufferBytes = 64 * sim::MiB;
    c.dramCacheBytes = 32 * sim::MiB;
    c.readAhead = true;
    // Production firmware collects in the background and prioritizes
    // host reads over internal traffic (DESIGN.md section 10).
    c.ftlCfg.backgroundGc = true;
    c.nandCfg.sched.readPriority = true;
    c.nandCfg.sched.eraseSuspend = true;
    return c;
}

SsdConfig
SsdConfig::ullSsd()
{
    SsdConfig c;
    c.name = "ULL-SSD";
    c.nandCfg = nand::NandConfig::slcUltraLowLatency();
    // Same split discipline as dcSsd: sums stay 6.8/8.5/12 us.
    c.readFrontend = sim::usOf(5.3);
    c.fwReadCost = sim::usOf(1.5);
    c.writeFrontend = sim::usOf(7);
    c.fwWriteCost = sim::usOf(1.5);
    c.flushCost = sim::usOf(11);
    c.fwFlushCost = sim::usOf(1);
    c.writeBufferBytes = 64 * sim::MiB;
    c.dramCacheBytes = 32 * sim::MiB;
    c.dramAccessLatency = sim::usOf(1);
    c.readAhead = true;
    c.ftlCfg.backgroundGc = true;
    c.nandCfg.sched.readPriority = true;
    c.nandCfg.sched.eraseSuspend = true;
    return c;
}

SsdConfig
SsdConfig::tiny()
{
    SsdConfig c;
    c.name = "tiny-ssd";
    c.nandCfg = nand::NandConfig::tiny();
    c.nandCfg.geometry.blocksPerDie = 32;
    c.ftlCfg.gcLowWaterBlocks = 4;
    c.ftlCfg.gcHighWaterBlocks = 8;
    // Split sums to 5/8/10 us; the DRAM cache stays off so the
    // functional and crash-recovery rigs see every NAND access.
    c.readFrontend = sim::usOf(4);
    c.fwReadCost = sim::usOf(1);
    c.writeFrontend = sim::usOf(6.5);
    c.fwWriteCost = sim::usOf(1.5);
    c.flushCost = sim::usOf(9);
    c.fwFlushCost = sim::usOf(1);
    c.writeBufferBytes = sim::MiB;
    c.readAhead = true;
    c.readAheadPages = 8;
    return c;
}

sim::Bandwidth
SsdDevice::drainRate(const SsdConfig &cfg)
{
    const auto &t = cfg.nandCfg.timing;
    const double per_die =
        static_cast<double>(t.programChunkBytes) /
        static_cast<double>(t.programChunk);
    return sim::Bandwidth{per_die * cfg.nandCfg.geometry.totalDies()};
}

SsdDevice::SsdDevice(const SsdConfig &cfg)
    : cfg_(cfg),
      flash_(std::make_unique<nand::NandFlash>(cfg.nandCfg)),
      ftl_(std::make_unique<ftl::Ftl>(*flash_, cfg.ftlCfg)),
      link_(cfg.pcieCfg),
      dram_(cfg.dramCacheBytes, cfg.dramLineBytes),
      writeBuffer_(cfg.writeBufferBytes, drainRate(cfg))
{
    domain_.adopt(this, sizeof(*this), "ssd.device");
    domain_.adopt(flash_.get(), sizeof(nand::NandFlash), "ssd.flash");
    domain_.adopt(ftl_.get(), sizeof(ftl::Ftl), "ssd.ftl");
}

SsdDevice::~SsdDevice()
{
    domain_.release(ftl_.get());
    domain_.release(flash_.get());
    domain_.release(this);
}

sim::Tick
SsdDevice::fwCpu(sim::Tick ready, sim::Tick cost)
{
    if (cost == 0)
        return ready;
    auto iv = fwCpu_.reserve(ready, cost);
    if (tracer_)
        tracer_->phase("fwcpu", ready, iv.end);
    return iv.end;
}

std::uint64_t
SsdDevice::capacityBytes() const
{
    return ftl_->logicalPages() * ftl_->pageSize();
}

bool
SsdDevice::prefetched(ftl::Lpn lpn, std::uint64_t pages) const
{
    return prefetchCount_ > 0 && lpn >= prefetchStart_ &&
           lpn + pages <= prefetchStart_ + prefetchCount_;
}

void
SsdDevice::startPrefetch(sim::Tick now, ftl::Lpn lpn)
{
    std::uint64_t count = cfg_.readAheadPages;
    if (lpn >= ftl_->logicalPages()) {
        prefetchCount_ = 0;
        return;
    }
    count = std::min<std::uint64_t>(count, ftl_->logicalPages() - lpn);
    prefetchStart_ = lpn;
    prefetchCount_ = count;
    // The prefetch occupies media now; the data is ready when the
    // batch read finishes.
    prefetchReady_ = ftl_->prefetch(now, lpn, count).end;
}

sim::Interval
SsdDevice::blockRead(sim::Tick ready, std::uint64_t offset,
                     std::span<std::uint8_t> out)
{
    BSSD_OWN_GUARD(this);
    const std::uint64_t bytes = out.size();
    if (bytes == 0)
        return {ready, ready};
    if (offset + bytes > capacityBytes())
        sim::fatal(cfg_.name, ": block read past capacity");
    reads_.add();

    const std::uint32_t ps = ftl_->pageSize();
    const ftl::Lpn lpn = offset / ps;
    const std::uint64_t last = (offset + bytes - 1) / ps;
    const std::uint64_t pages = last - lpn + 1;

    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ssd", "blockRead", ready)
        : 0;
    auto fe = frontend_.reserve(ready, cfg_.readFrontend);
    if (tracer_)
        tracer_->phase("frontend", ready, fe.end);
    sim::Tick t = fwCpu(fe.end, cfg_.fwReadCost);

    std::vector<std::uint8_t> buf(pages * ps);

    // Controller DRAM read cache: a fully-resident range is served
    // from DRAM and never touches the NAND calendars.
    if (dram_.lookup(offset, bytes)) {
        ftl_->readUntimed(lpn, pages, buf);
        sim::Tick served = t + cfg_.dramAccessLatency;
        std::copy_n(buf.begin() +
                        static_cast<std::ptrdiff_t>(offset - lpn * ps),
                    bytes, out.begin());
        auto dma_iv = link_.dma(t, bytes);
        sim::Tick end = std::max(served, dma_iv.end);
        nextSeqLpn_ = lpn + pages;
        if (tracer_) {
            sim::SpanId hit = tracer_->beginSpan("ssd", "dram_hit", t);
            tracer_->endSpan(hit, served);
            tracer_->phase("internal", t, served);
            if (end > served)
                tracer_->phase("xfer", served, end);
            tracer_->endSpan(sp, end);
        }
        readLat_.record(end - ready);
        return {ready, end};
    }

    sim::Tick media_end;
    if (cfg_.readAhead && prefetched(lpn, pages)) {
        raHits_.add();
        ftl_->readUntimed(lpn, pages, buf);
        media_end = std::max(t, prefetchReady_);
        // Keep the stream warm past the current window.
        if (lpn + pages >= prefetchStart_ + prefetchCount_)
            startPrefetch(media_end, lpn + pages);
    } else {
        auto iv = ftl_->read(t, lpn, pages, buf);
        media_end = iv.end;
        if (cfg_.readAhead && lpn == nextSeqLpn_)
            startPrefetch(media_end, lpn + pages);
    }
    nextSeqLpn_ = lpn + pages;
    // Misses fill the cache with the pages just read.
    dram_.fill(lpn * std::uint64_t(ps), pages * std::uint64_t(ps));

    std::copy_n(buf.begin() +
                    static_cast<std::ptrdiff_t>(offset - lpn * ps),
                bytes, out.begin());

    // Host transfer is pipelined with the media phase; completion is
    // bounded by whichever finishes later.
    auto dma_iv = link_.dma(t, bytes);
    sim::Tick end = std::max(media_end, dma_iv.end);
    if (tracer_) {
        tracer_->phase("media", t, media_end);
        if (end > media_end)
            tracer_->phase("xfer", media_end, end);
        tracer_->endSpan(sp, end);
    }
    readLat_.record(end - ready);
    return {ready, end};
}

sim::Interval
SsdDevice::blockWrite(sim::Tick ready, std::uint64_t offset,
                      std::span<const std::uint8_t> data)
{
    BSSD_OWN_GUARD(this);
    const std::uint64_t bytes = data.size();
    if (bytes == 0)
        return {ready, ready};
    if (offset + bytes > capacityBytes())
        sim::fatal(cfg_.name, ": block write past capacity");
    if (writeGate_ && !writeGate_(offset, bytes)) {
        throw WriteGatedError(
            cfg_.name + ": block write rejected by LBA checker");
    }
    writes_.add();
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ssd", "blockWrite", ready)
        : 0;
    sim::tracepointHit(faults_, tracer_, sim::Tp::ssdWriteStart, ready);
    // Writes invalidate any read-ahead window (the stream is broken).
    prefetchCount_ = 0;

    const std::uint32_t ps = ftl_->pageSize();
    const ftl::Lpn lpn = offset / ps;
    const std::uint64_t last = (offset + bytes - 1) / ps;
    const std::uint64_t pages = last - lpn + 1;
    // New data makes any cached copy of these pages stale.
    dram_.invalidate(lpn * std::uint64_t(ps), pages * std::uint64_t(ps));

    auto fe = frontend_.reserve(ready, cfg_.writeFrontend);
    if (tracer_)
        tracer_->phase("frontend", ready, fe.end);
    sim::Tick cpu = fwCpu(fe.end, cfg_.fwWriteCost);
    auto dma_iv = link_.dma(cpu, bytes);
    sim::Tick t = dma_iv.end;
    if (tracer_)
        tracer_->phase("xfer", cpu, t);

    // Whole pages go to the FTL straight from the host's buffer; an
    // unaligned head/tail is staged with a read-modify-write of the
    // surrounding pages.
    std::vector<std::uint8_t> buf;
    std::span<const std::uint8_t> pageData = data;
    const bool head_partial = offset % ps != 0;
    const bool tail_partial = (offset + bytes) % ps != 0;
    if (head_partial || tail_partial) {
        buf.resize(pages * ps);
        if (head_partial)
            ftl_->readUntimed(lpn, 1, std::span(buf.data(), ps));
        if (tail_partial && (pages > 1 || !head_partial)) {
            ftl_->readUntimed(
                last, 1, std::span(buf.data() + (pages - 1) * ps, ps));
        }
        std::copy(data.begin(), data.end(),
                  buf.begin() +
                      static_cast<std::ptrdiff_t>(offset - lpn * ps));
        pageData = buf;
    }

    // The command completes when the data sits in the capacitor-backed
    // buffer; destage happens at the NAND drain rate behind the host's
    // back (and still loads the die calendars, contending with reads).
    sim::Tick admitted = writeBuffer_.admit(t, pages * ps);
    sim::tracepointHit(faults_, tracer_, sim::Tp::ssdWriteAdmit,
                       admitted);
    if (tracer_)
        tracer_->phase("buffer", t, admitted);
    // The destage span nests under this command's span: GC storms the
    // write triggers show up attributed to it, even though the host
    // sees only the buffer-admission latency (unless writeThrough,
    // where the command completes with the destage itself).
    auto ftl_iv = ftl_->write(admitted, lpn, pages, pageData);
    sim::Tick done = cfg_.writeThrough
        ? std::max(admitted, ftl_iv.end)
        : admitted;
    if (tracer_) {
        if (done > admitted)
            tracer_->phase("destage", admitted, done);
        tracer_->endSpan(sp, done);
    }
    writeLat_.record(done - ready);
    return {ready, done};
}

sim::Tick
SsdDevice::flush(sim::Tick ready)
{
    BSSD_OWN_GUARD(this);
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ssd", "flush", ready)
        : 0;
    sim::tracepointHit(faults_, tracer_, sim::Tp::ssdFlush, ready);
    flushes_.add();
    auto fe = frontend_.reserve(ready, cfg_.flushCost);
    if (tracer_)
        tracer_->phase("frontend", ready, fe.end);
    sim::Tick end = fwCpu(fe.end, cfg_.fwFlushCost);
    if (tracer_)
        tracer_->endSpan(sp, end);
    return end;
}

void
SsdDevice::registerMetrics(sim::MetricRegistry &reg,
                           const std::string &prefix) const
{
    reg.addCounter(prefix + ".reads", reads_);
    reg.addCounter(prefix + ".writes", writes_);
    reg.addCounter(prefix + ".flushes", flushes_);
    reg.addCounter(prefix + ".read_ahead_hits", raHits_);
    reg.addHistogram(prefix + ".read_lat", readLat_);
    reg.addHistogram(prefix + ".write_lat", writeLat_);
    if (dram_.enabled())
        dram_.registerMetrics(reg, prefix + ".dram");
    ftl_->registerMetrics(reg, prefix + ".ftl");
    flash_->registerMetrics(reg, prefix + ".nand");
    link_.registerMetrics(reg, prefix + ".pcie");
}

void
SsdDevice::trim(std::uint64_t offset, std::uint64_t len)
{
    BSSD_OWN_GUARD(this);
    dram_.invalidate(offset, len);
    const std::uint32_t ps = ftl_->pageSize();
    std::uint64_t first = (offset + ps - 1) / ps;
    std::uint64_t end = (offset + len) / ps;
    if (end > first)
        ftl_->trim(first, end - first);
}

} // namespace bssd::ssd

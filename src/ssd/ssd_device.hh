/**
 * @file
 * NVMe-class block SSD model: frontend, capacitor-backed write buffer,
 * read-ahead, FTL and NAND backend behind a PCIe link.
 *
 * Two calibrated presets mirror the paper's comparison devices
 * (Section V-A):
 *  - SsdConfig::dcSsd()  - the datacenter-class PM963 ("DC-SSD")
 *  - SsdConfig::ullSsd() - the ultra-low-latency Z-SSD ("ULL-SSD")
 *
 * The 2B-SSD model (ba/two_b_ssd.hh) piggybacks on a ULL-class device,
 * exactly as the prototype does, so its block path is identical to the
 * ULL-SSD's.
 */

#ifndef BSSD_SSD_SSD_DEVICE_HH
#define BSSD_SSD_SSD_DEVICE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <span>
#include <string>

#include "ftl/ftl.hh"
#include "nand/nand_flash.hh"
#include "pcie/pcie_link.hh"
#include "ssd/dram_cache.hh"
#include "sim/domain.hh"
#include "sim/metrics.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::ssd
{

/**
 * Thrown when a block write is rejected by the LBA checker because it
 * targets NAND pages currently pinned to the BA-buffer.
 */
class WriteGatedError : public std::runtime_error
{
  public:
    explicit WriteGatedError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Full device configuration (Table I analogue). */
struct SsdConfig
{
    std::string name = "ssd";
    nand::NandConfig nandCfg;
    ftl::FtlConfig ftlCfg;
    pcie::PcieConfig pcieCfg;

    /** Queueing + protocol cost of a read command before media. */
    sim::Tick readFrontend = sim::usOf(5.5);
    /** Queueing + protocol cost of a write command. */
    sim::Tick writeFrontend = sim::usOf(8.5);
    /** NVMe FLUSH round trip (cheap: the buffer is capacitor-backed). */
    sim::Tick flushCost = sim::usOf(12);
    /**
     * @name Firmware CPU (SimpleSSD-style per-command overhead)
     *
     * One core runs the command firmware: every command holds it for
     * its cost, serializing against all other commands regardless of
     * which die or channel they target. 0 skips the stage. The presets
     * carve these out of the frontend costs, so QD1 latency sums are
     * unchanged while concurrent commands pipeline the two stages.
     * @{
     */
    sim::Tick fwReadCost = 0;
    sim::Tick fwWriteCost = 0;
    sim::Tick fwFlushCost = 0;
    /** @} */
    /**
     * @name Controller DRAM read cache
     *
     * A read whose bytes are all resident completes after the DRAM
     * access latency without touching NAND; writes invalidate. 0
     * disables (the tiny preset keeps it off so functional and crash
     * rigs are cache-free).
     * @{
     */
    std::uint64_t dramCacheBytes = 0;
    std::uint64_t dramLineBytes = 16 * sim::KiB;
    sim::Tick dramAccessLatency = sim::usOf(2);
    /** @} */
    /** Capacitor-backed write buffer capacity. */
    std::uint64_t writeBufferBytes = 64 * sim::MiB;
    /** Sequential read-ahead (the heuristic the paper notes for
     *  datacenter SSDs, Section V-B). */
    bool readAhead = false;
    /** Pages fetched ahead on a sequential stream. */
    std::uint32_t readAheadPages = 64;
    /**
     * FUA-style writes: the command completes only when the FTL
     * destage (including any GC stall charged to it) finishes, not at
     * buffer admission. Default off - the capacitor-backed buffer is
     * what the paper's devices expose. bench_tail_latency turns this
     * on so the foreground-vs-background GC ablation measures the
     * stall at the host.
     */
    bool writeThrough = false;

    /** Datacenter-class NVMe SSD (PM963-like). */
    static SsdConfig dcSsd();
    /** Ultra-low-latency NVMe SSD (Z-SSD-like). */
    static SsdConfig ullSsd();
    /** Small geometry for unit tests. */
    static SsdConfig tiny();
};

/**
 * A block-interface NVMe SSD. Offsets and lengths are in bytes;
 * unaligned accesses are handled with page read-modify-write, like a
 * real FTL would.
 */
class SsdDevice
{
  public:
    explicit SsdDevice(const SsdConfig &cfg);
    ~SsdDevice();

    const SsdConfig &config() const { return cfg_; }
    std::uint64_t capacityBytes() const;
    std::uint32_t pageSize() const { return ftl_->pageSize(); }

    /**
     * Block read of @p out.size() bytes at @p offset.
     * @return granted interval; end is command completion at the host.
     */
    sim::Interval blockRead(sim::Tick ready, std::uint64_t offset,
                            std::span<std::uint8_t> out);

    /**
     * Block write of @p data at @p offset. Completes when the data is
     * in the capacitor-backed write buffer (durable); NAND destage
     * happens behind the scenes at the drain rate.
     */
    sim::Interval blockWrite(sim::Tick ready, std::uint64_t offset,
                             std::span<const std::uint8_t> data);

    /** NVMe FLUSH. With power-loss protection this is a cheap barrier. */
    sim::Tick flush(sim::Tick ready);

    /** TRIM a byte range (page-aligned portions only). */
    void trim(std::uint64_t offset, std::uint64_t len);

    /**
     * @name Sub-component access (2B-SSD extensions, tests, stats)
     *
     * These hand out mutable sub-objects of the device domain; every
     * product caller (ba::TwoBSsd, recovery, stats) composes onto the
     * device inside its own domain, and BSSD_DOMAIN_CHECK builds
     * verify at run time that no other domain's thread ever touches
     * them (DESIGN.md section 16).
     * @{
     */
    ftl::Ftl &ftl() { return *ftl_; }
    const ftl::Ftl &ftl() const { return *ftl_; }
    nand::NandFlash &flash() { return *flash_; }
    pcie::PcieLink &link() { return link_; }
    /**
     * The device's simulation domain. Device-internal background
     * activity (recovery dump sequence, DMA completion interrupts)
     * runs as events on its queue; multi-device runs register the
     * domain with a sim::ParallelEngine and the device side of the
     * PCIe boundary executes concurrently with the host domain.
     */
    sim::Domain &domain() { return domain_; }
    const sim::Domain &domain() const { return domain_; }
    /** @} */

    /** @name Statistics @{ */
    std::uint64_t readsServed() const { return reads_.value(); }
    std::uint64_t writesServed() const { return writes_.value(); }
    std::uint64_t flushesServed() const { return flushes_.value(); }
    std::uint64_t readAheadHits() const { return raHits_.value(); }
    /** DRAM read-cache presence tracker (hit/miss counters). */
    const DramCache &dramCache() const { return dram_; }

    /** Per-command completion latency (ticks), host-observed. */
    const sim::Histogram &readLatency() const { return readLat_; }
    const sim::Histogram &writeLatency() const { return writeLat_; }
    /** @} */

    /**
     * An optional hook consulted before every block write; the 2B-SSD
     * LBA checker installs itself here to gate writes to pinned
     * ranges (Section III-A2). Return false to reject the command.
     */
    using WriteGate = std::function<bool(std::uint64_t offset,
                                         std::uint64_t len)>;
    void setWriteGate(WriteGate gate) { writeGate_ = std::move(gate); }

    /**
     * Install the rig's fault injector into the frontend and every
     * sub-component (FTL, NAND, PCIe). nullptr uninstalls.
     */
    void setFaultInjector(sim::FaultInjector *f)
    {
        faults_ = f;
        ftl_->setFaultInjector(f);
        flash_->setFaultInjector(f);
        link_.setFaultInjector(f);
    }

    /**
     * Install the rig's tracer into the frontend and every
     * sub-component. nullptr uninstalls.
     */
    void setTracer(sim::Tracer *t)
    {
        tracer_ = t;
        ftl_->setTracer(t);
        flash_->setTracer(t);
        link_.setTracer(t);
    }

    /**
     * Attach this device's statistics (and its FTL/NAND/PCIe
     * sub-components) to @p reg under @p prefix ("ssd0").
     */
    void registerMetrics(sim::MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    SsdConfig cfg_;
    sim::Domain domain_{cfg_.name};
    sim::FaultInjector *faults_ = nullptr;
    sim::Tracer *tracer_ = nullptr;
    std::unique_ptr<nand::NandFlash> flash_;
    std::unique_ptr<ftl::Ftl> ftl_;
    pcie::PcieLink link_;
    sim::FifoResource frontend_{"ssd.frontend"};
    /** The firmware core every command serializes on (cost > 0). */
    sim::FifoResource fwCpu_{"ssd.fwcpu"};
    DramCache dram_;
    sim::DrainingBuffer writeBuffer_;
    WriteGate writeGate_;

    // Read-ahead state.
    ftl::Lpn prefetchStart_ = 0;
    std::uint64_t prefetchCount_ = 0;
    sim::Tick prefetchReady_ = 0;
    ftl::Lpn nextSeqLpn_ = ~ftl::Lpn(0);

    sim::Counter reads_{"ssd.reads"};
    sim::Counter writes_{"ssd.writes"};
    sim::Counter flushes_{"ssd.flushes"};
    sim::Counter raHits_{"ssd.readAheadHits"};
    // Log-linear histograms: O(1) record, fine for the per-I/O path.
    sim::Histogram readLat_{"ssd.readLat"};
    sim::Histogram writeLat_{"ssd.writeLat"};

    static sim::Bandwidth drainRate(const SsdConfig &cfg);
    bool prefetched(ftl::Lpn lpn, std::uint64_t pages) const;
    void startPrefetch(sim::Tick now, ftl::Lpn lpn);
    /** Reserve the firmware core; pass-through when the cost is 0. */
    sim::Tick fwCpu(sim::Tick ready, sim::Tick cost);
};

} // namespace bssd::ssd

#endif // BSSD_SSD_SSD_DEVICE_HH

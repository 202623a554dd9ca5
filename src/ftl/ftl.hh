/**
 * @file
 * Page-mapping flash translation layer.
 *
 * Responsibilities:
 *  - logical page (LPN) to physical page (PPA) mapping
 *  - write frontier striped round-robin across dies
 *  - greedy garbage collection with an over-provisioned free pool
 *  - write amplification accounting (Section IV-A of the paper argues
 *    BA-WAL reduces WAF; bench_waf measures it through this counter)
 *
 * The FTL is shared by the block I/O frontend and the 2B-SSD internal
 * datapath, which is what makes the dual view coherent: both paths
 * resolve the same LPN to the same NAND page.
 */

#ifndef BSSD_FTL_FTL_HH
#define BSSD_FTL_FTL_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nand/nand_flash.hh"
#include "sim/fault.hh"
#include "sim/metrics.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::ftl
{

/** Logical page number: the 4 KB-granular logical address. */
using Lpn = std::uint64_t;

/** FTL tuning parameters. */
struct FtlConfig
{
    /** Fraction of physical capacity reserved as over-provisioning.
     *  Must lie in [0, 0.9]; the constructor rejects anything else. */
    double overProvision = 0.07;
    /** Foreground GC engages when free blocks drop to this count.
     *  0 would let the pool empty before GC runs; clamped to 1. */
    std::uint32_t gcLowWaterBlocks = 4;
    /** GC relocates until free blocks recover to this count. */
    std::uint32_t gcHighWaterBlocks = 8;

    /**
     * Incremental background GC (DESIGN.md section 10): relocate the
     * victim's pages in small rate-controlled steps woven between host
     * I/Os instead of stalling the write that crosses the low
     * watermark. Foreground GC remains as the fallback when the pool
     * hits the low watermark anyway.
     */
    bool backgroundGc = false;
    /** Valid pages relocated per background step (clamped to >= 1). */
    std::uint32_t gcStepPages = 8;
    /** Host idle gap that earns extra catch-up steps (0 disables). */
    sim::Tick gcIdleThreshold = sim::usOf(30);
};

/**
 * Page-level FTL over a NandFlash array. All data-path entry points
 * are timed: they move real bytes and return the granted interval.
 */
class Ftl
{
  public:
    Ftl(nand::NandFlash &flash, const FtlConfig &cfg = {});

    /** Logical capacity in 4 KB pages (physical minus OP minus GC pool). */
    std::uint64_t logicalPages() const { return logicalPages_; }

    /** Bytes per logical page (== NAND page size). */
    std::uint32_t pageSize() const { return pageSize_; }

    /**
     * Read @p count logical pages starting at @p lpn into @p out.
     * Unwritten pages read as 0xff. @return granted interval.
     */
    sim::Interval read(sim::Tick ready, Lpn lpn, std::uint64_t count,
                       std::span<std::uint8_t> out);

    /**
     * Write @p count logical pages starting at @p lpn from @p data.
     * Triggers foreground GC when the free pool runs low; the GC time
     * is charged to this write's interval, which is how sustained
     * random writes degrade, as on a real device.
     */
    sim::Interval write(sim::Tick ready, Lpn lpn, std::uint64_t count,
                        std::span<const std::uint8_t> data);

    /**
     * Functional-only read (no timing): used by the device read-ahead
     * path, which accounts media time when the prefetch was issued
     * rather than when the host consumes the data.
     */
    void readUntimed(Lpn lpn, std::uint64_t count,
                     std::span<std::uint8_t> out) const;

    /**
     * Reserve NAND time for the mapped pages of [lpn, lpn + count)
     * without moving data: the device read-ahead path issues this when
     * a sequential stream is detected and serves the bytes untimed
     * when the host consumes them. @return granted interval.
     */
    sim::Interval prefetch(sim::Tick now, Lpn lpn, std::uint64_t count);

    /** Drop the mapping for a logical range (TRIM). */
    void trim(Lpn lpn, std::uint64_t count);

    /** True if the logical page has ever been written (and not trimmed). */
    bool isMapped(Lpn lpn) const { return mapped(lpn) != nullptr; }

    /** @name WAF accounting @{ */
    std::uint64_t hostPagesWritten() const { return hostPages_; }
    std::uint64_t nandPagesWritten() const { return nandPages_; }
    std::uint64_t gcRelocatedPages() const { return gcPages_; }
    /** Incremental background GC steps executed. */
    std::uint64_t gcBackgroundSteps() const { return gcSteps_; }

    /** Write amplification factor: NAND page programs per host page. */
    double
    waf() const
    {
        return hostPages_ == 0
            ? 1.0
            : static_cast<double>(nandPages_) /
                  static_cast<double>(hostPages_);
    }
    /** @} */

    /** Number of blocks currently in the free pool. */
    std::uint32_t freeBlocks() const;

    /** Wear distribution across all physical blocks. */
    struct WearStats
    {
        std::uint64_t minErase = 0;
        std::uint64_t maxErase = 0;
        double avgErase = 0.0;
    };

    /** Erase-count statistics (wear levelling health). */
    WearStats wearStats() const;

    /** Install the rig's fault injector (nullptr disables). */
    void setFaultInjector(sim::FaultInjector *f) { faults_ = f; }

    /** Install the rig's tracer (nullptr disables). */
    void setTracer(sim::Tracer *t) { tracer_ = t; }

    /**
     * Attach this FTL's statistics to @p reg under @p prefix
     * ("ssd0.ftl"): latency histograms, WAF counters and the
     * free-blocks/WAF gauges.
     */
    void registerMetrics(sim::MetricRegistry &reg,
                         const std::string &prefix) const;

    /** Blocks retired at runtime after program/erase failures. */
    std::uint64_t grownBadBlocks() const { return grownBad_; }

    /** @name Per-request media-time histograms (hot-path cheap) @{ */
    const sim::Histogram &readLatency() const { return readLat_; }
    const sim::Histogram &writeLatency() const { return writeLat_; }
    /** Foreground GC stall charged to host writes, per GC episode. */
    const sim::Histogram &gcPauses() const { return gcPause_; }
    /** Die time consumed per background GC step (not host-visible). */
    const sim::Histogram &gcStepLatency() const { return gcStepLat_; }
    /** @} */

  private:
    /** A physical block's bookkeeping. */
    struct BlockInfo
    {
        std::uint32_t die = 0;
        std::uint32_t block = 0;
        std::uint32_t validPages = 0;
        /** LPN stored in each programmed page (reverse map). */
        std::vector<Lpn> pageLpn;
        bool open = false;
        bool free = true;
    };

    nand::NandFlash &flash_;
    FtlConfig cfg_;
    std::uint32_t pageSize_;
    std::uint64_t logicalPages_;

    /** @name The mapping table @{
     * A dense LPN -> PPA table in two levels of small chunks, each
     * allocated on the first write it covers: a leaf maps
     * 2^l2pLeafShift LPNs, a directory 2^l2pDirShift leaves. A large
     * logical space (128 GB on the dc/ull presets) thus costs memory
     * only where it was written. Unmapped entries hold noPpa. */
    static constexpr unsigned l2pLeafShift = 8;
    static constexpr unsigned l2pDirShift = 10;
    using L2pLeaf = std::unique_ptr<nand::Ppa[]>;
    std::vector<std::unique_ptr<L2pLeaf[]>> l2p_;
    /** @} */
    std::vector<BlockInfo> blocks_;
    std::vector<std::uint32_t> freeList_;
    /** Per-die open (frontier) block index into blocks_, or -1. */
    std::vector<std::int32_t> frontier_;
    std::uint32_t nextDie_ = 0;
    /** Pages per multi-plane program chunk (run length per die). */
    std::uint32_t planePages_ = 1;
    /** Consecutive pages already allocated on nextDie_'s run. */
    std::uint32_t runFill_ = 0;

    sim::FaultInjector *faults_ = nullptr;
    sim::Tracer *tracer_ = nullptr;

    std::uint64_t hostPages_ = 0;
    std::uint64_t nandPages_ = 0;
    std::uint64_t gcPages_ = 0;
    std::uint64_t grownBad_ = 0;

    /** @name Incremental background GC state @{ */
    /** In-flight victim block index, or -1 between episodes. */
    std::int64_t gcVictim_ = -1;
    /** Next page of the victim to scan. */
    std::uint32_t gcScanPage_ = 0;
    /** Victim's erase count at selection; a mismatch at step time
     *  means a foreground episode recycled it under us. */
    std::uint64_t gcVictimWear_ = 0;
    /** End of the latest host op (idle-gap detection). */
    sim::Tick lastHostEnd_ = 0;
    std::uint64_t gcSteps_ = 0;
    /** @} */

    /** @name Reused buffers @{ */
    /** The pages of the host read or write in progress. */
    std::vector<nand::Ppa> ioPpas_;
    /** One GC step's (or episode victim's) relocated pages. */
    std::vector<nand::Ppa> gcSrc_;
    std::vector<nand::Ppa> gcDst_;
    /** Page buffers of relocate(), one per nesting depth. */
    std::vector<std::vector<std::uint8_t>> relocBufs_;
    std::size_t relocDepth_ = 0;
    /** @} */

    sim::Histogram readLat_{"ftl.readLat"};
    sim::Histogram writeLat_{"ftl.writeLat"};
    sim::Histogram gcPause_{"ftl.gcPause"};
    sim::Histogram gcStepLat_{"ftl.gcStepLat"};

    std::uint32_t blockIndex(std::uint32_t die, std::uint32_t block) const;
    BlockInfo &blockOf(nand::Ppa ppa);

    /** The PPA @p lpn maps to, or nullptr when it is unmapped. */
    const nand::Ppa *mapped(Lpn lpn) const;
    nand::Ppa *mapped(Lpn lpn);
    /** Map @p lpn to @p ppa, allocating its table chunks if needed. */
    void map(Lpn lpn, nand::Ppa ppa);

    /**
     * Copy the page @p lpn holds at @p src to a fresh location. Each
     * nesting depth has its own buffer: a program failure inside
     * writeOnePage() retires a block, whose own relocations must not
     * overwrite the page still being written.
     */
    nand::Ppa relocate(Lpn lpn, nand::Ppa src, sim::Tick at);

    /**
     * Allocate the next physical page on the frontier. The frontier
     * stripes planePages_-page runs round-robin across dies, so one
     * request's pages group into multi-plane chunks on consecutive
     * channels.
     */
    nand::Ppa allocatePage();

    /**
     * Map + program one logical page (functional only; @p at is the
     * simulated time the destage runs, for the ftl.program tracepoint).
     * @return the physical page the data landed on.
     */
    nand::Ppa writeOnePage(Lpn lpn, std::span<const std::uint8_t> page,
                           sim::Tick at);

    /** Invalidate the old location of @p lpn, if any. */
    void invalidate(Lpn lpn);

    /**
     * Retire a block after a media failure: mark it bad, relocate any
     * pages still mapped into it, and drop it from circulation.
     */
    void retireBlock(std::uint32_t die, std::uint32_t block,
                     sim::Tick at);

    /** Run greedy GC until the high watermark is restored. */
    sim::Tick collectGarbage(sim::Tick ready);
    sim::Tick doCollectGarbage(sim::Tick ready);

    /**
     * Run the background steps a host op at @p now has earned: one
     * when the pool is below the high watermark, plus catch-up steps
     * after an idle gap. Die time is reserved through the background
     * NAND variants, so host latency is only affected through die
     * contention - never charged directly.
     */
    void backgroundGcSteps(sim::Tick now);

    /** One incremental step: relocate up to gcStepPages pages of the
     *  current victim, erasing and freeing it when fully scanned. */
    void backgroundGcStep(sim::Tick now);

    std::uint32_t pickVictim() const;
};

} // namespace bssd::ftl

#endif // BSSD_FTL_FTL_HH

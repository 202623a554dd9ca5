/**
 * @file
 * PCIe interconnect timing model.
 *
 * The paper's headline latency behaviour comes straight from PCIe
 * transaction mechanics (Section III-B / V-B):
 *
 *  - Memory writes are POSTED: the CPU does not wait for a completion,
 *    so an MMIO store costs only the root-complex hand-off (~630 ns for
 *    a combined 64 B burst).
 *  - Memory reads are NON-POSTED and, for an uncacheable BAR, split
 *    into 8-byte transactions, each paying a full round trip (~293 ns)
 *    - hence 4 KB over MMIO costs ~150 us while a block read is 13 us.
 *  - The root complex sequentialises reads and writes, so a zero-byte
 *    "write-verify read" flushes all prior posted writes (the paper's
 *    durability barrier, Fig. 3).
 *  - Bulk data moves (NVMe block I/O, the read DMA engine) use long
 *    DMA bursts that approach the Gen3 x4 wire rate (~3.2 GB/s).
 */

#ifndef BSSD_PCIE_PCIE_LINK_HH
#define BSSD_PCIE_PCIE_LINK_HH

#include <cstdint>

#include "sim/fault.hh"
#include "sim/metrics.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::pcie
{

/** Link calibration; defaults reproduce the paper's Gen3 x4 numbers. */
struct PcieConfig
{
    /** Effective payload bandwidth for DMA bursts. */
    sim::Bandwidth dmaBw = sim::gbPerSec(3.2);
    /** Host-side cost to emit one posted write burst (up to 64 B). */
    sim::Tick postedWriteCost = sim::nsOf(610);
    /** Extra per-burst cost once a stream of bursts is in flight. */
    sim::Tick postedWriteStreamCost = sim::nsOf(20);
    /** Time from CPU hand-off to arrival in device memory. */
    sim::Tick postedPropagation = sim::nsOf(80);
    /** Full round trip of one non-posted (read) transaction. */
    sim::Tick nonPostedRoundTrip = sim::nsOf(293);
    /**
     * Cost of the zero-byte write-verify read. Calibrated separately
     * from a data read: the paper measures BA_SYNC adding only ~15%
     * to a small write (Section V-B), implying the verify completes
     * near the root complex rather than paying a full device round
     * trip.
     */
    sim::Tick verifyReadCost = sim::nsOf(55);
    /** Payload granule of an uncacheable MMIO read. */
    std::uint32_t readSplitBytes = 8;
    /** Maximum payload of one posted write burst (WC line). */
    std::uint32_t writeBurstBytes = 64;

    /** @name Conservative-engine lookahead bounds
     *
     * The parallel engine (sim/engine.hh) needs a lower bound on how
     * long any host→device (or device→host) signal spends on the
     * link; that bound is the channel lookahead that lets a domain run
     * ahead of its neighbors. These are bounds the timing model above
     * can never undercut, not new timing paths.
     * @{ */

    /** Cheapest possible host→device delivery: one posted write
     *  hand-off plus wire propagation. */
    sim::Tick
    minPostedLatency() const
    {
        return postedWriteCost + postedPropagation;
    }

    /** @} */
};

/**
 * One PCIe port: the path between the host root complex and a device.
 *
 * Tracks the posted-write queue so the write-verify read barrier can
 * be answered exactly: a non-posted read completes only after every
 * previously posted write has landed in device memory.
 */
class PcieLink
{
  public:
    explicit PcieLink(const PcieConfig &cfg = {});

    const PcieConfig &config() const { return cfg_; }

    /**
     * Issue posted write bursts covering @p bytes.
     *
     * @param ready    time the data leaves the CPU
     * @return time the CPU is free to continue (NOT arrival at the
     *         device; posted writes complete asynchronously)
     */
    sim::Tick postedWrite(sim::Tick ready, std::uint64_t bytes);

    /**
     * Read @p bytes through MMIO (split into readSplitBytes granules,
     * each a full round trip).
     * @return completion time at the CPU.
     */
    sim::Tick mmioRead(sim::Tick ready, std::uint64_t bytes);

    /**
     * The write-verify read: a zero-byte non-posted read that orders
     * behind all posted writes at the root complex.
     * @return completion time; all writes posted before @p ready are
     *         guaranteed device-durable at this time.
     */
    sim::Tick writeVerifyRead(sim::Tick ready);

    /**
     * A bulk DMA transfer of @p bytes (NVMe data phase, read DMA
     * engine output). @return the granted interval on the link.
     */
    sim::Interval dma(sim::Tick ready, std::uint64_t bytes);

    /**
     * Time at which every posted write issued so far has arrived in
     * device memory. Data posted but not yet arrived is what a power
     * failure loses (exercised by the durability tests).
     */
    sim::Tick postedDrainTime() const { return postedLanded_; }

    /** @name Statistics @{ */
    std::uint64_t postedBursts() const { return postedBursts_.value(); }
    std::uint64_t nonPostedReads() const { return nonPosted_.value(); }
    std::uint64_t dmaBytes() const { return dmaBytes_.value(); }
    /** @} */

    /** Reset calendars and counters for a fresh measurement. */
    void reset();

    /** Install the rig's fault injector (nullptr disables). */
    void setFaultInjector(sim::FaultInjector *f) { faults_ = f; }

    /** Install the rig's tracer (nullptr disables). */
    void setTracer(sim::Tracer *t) { tracer_ = t; }

    /** Attach the link's counters to @p reg under @p prefix ("pcie0"). */
    void
    registerMetrics(sim::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        reg.addCounter(prefix + ".posted_bursts", postedBursts_);
        reg.addCounter(prefix + ".non_posted_reads", nonPosted_);
        reg.addCounter(prefix + ".dma_bytes", dmaBytes_);
    }

  private:
    PcieConfig cfg_;
    sim::FaultInjector *faults_ = nullptr;
    sim::Tracer *tracer_ = nullptr;
    sim::FifoResource wire_{"pcie.wire"};
    /** Arrival time of the most recent posted write at the device. */
    sim::Tick postedLanded_ = 0;
    /** CPU-free time of the previous posted write (stream detection). */
    sim::Tick streamEnd_ = 0;
    sim::Counter postedBursts_{"pcie.postedBursts"};
    sim::Counter nonPosted_{"pcie.nonPostedReads"};
    sim::Counter dmaBytes_{"pcie.dmaBytes"};
};

} // namespace bssd::pcie

#endif // BSSD_PCIE_PCIE_LINK_HH

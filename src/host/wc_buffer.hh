/**
 * @file
 * x86 write-combining (WC) buffer model.
 *
 * 2B-SSD maps its BAR1 window write-combining (Section III-A1): CPU
 * stores to the window land in a small set of 64-byte fill buffers and
 * are posted to PCIe as combined bursts. This model keeps the real
 * bytes in the lines, so the durability story is testable end to end:
 *
 *  - a line is sent to the device when it fills, when it is evicted to
 *    make room, or when the application flushes (clflush + mfence);
 *  - bytes still sitting in a WC line at power-loss time are LOST -
 *    exactly the hazard the paper's BA_SYNC protocol exists to close.
 *
 * The sink callback represents the PCIe posted-write path; it returns
 * the time the CPU may continue (posted semantics).
 */

#ifndef BSSD_HOST_WC_BUFFER_HH
#define BSSD_HOST_WC_BUFFER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/fault.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::host
{

/** WC buffer calibration. */
struct WcConfig
{
    /** Bytes per WC line: 64 on current x86, and fixed, since a
     *  line's valid bytes are one 64-bit mask. */
    static constexpr std::uint32_t lineBytes = 64;
    /** Number of fill buffers (about 10 on Xeon-class cores). */
    std::uint32_t lines = 10;
    /** CPU cost to fill one line with stores. */
    sim::Tick storeCostPerLine = sim::nsOf(4);
    /** Cost of one clflush instruction. */
    sim::Tick clflushCost = sim::nsOf(14);
    /** Cost of one mfence instruction. */
    sim::Tick mfenceCost = sim::nsOf(26);
};

/**
 * The write-combining buffer between CPU stores and a posted-write
 * sink.
 */
class WcBuffer
{
  public:
    /**
     * Posted-write sink: deliver @p data at window offset @p offset,
     * first byte leaving the CPU at @p ready. Returns the tick at
     * which the CPU may proceed (not device arrival).
     */
    using Sink = std::function<sim::Tick(
        sim::Tick ready, std::uint64_t offset,
        std::span<const std::uint8_t> data)>;

    WcBuffer(const WcConfig &cfg, Sink sink);

    /**
     * CPU stores of @p data at @p offset in the device window.
     * Lines that fill completely are posted immediately; partial lines
     * combine with later stores. @return CPU-free time.
     */
    sim::Tick write(sim::Tick now, std::uint64_t offset,
                    std::span<const std::uint8_t> data);

    /**
     * clflush every dirty line intersecting [offset, offset+len) and
     * fence (the paper's clflush+mfence step, Fig. 3). All affected
     * bytes are posted; durability still requires the device-side
     * write-verify read. An empty range is the fence alone.
     * @return CPU-free time.
     */
    sim::Tick flushRange(sim::Tick now, std::uint64_t offset,
                         std::uint64_t len);

    /** clflush + mfence over every dirty line. @return CPU-free time. */
    sim::Tick flushAll(sim::Tick now);

    /**
     * Post every dirty line without instruction cost, modelling the
     * WC buffers draining on their own "after a period of time". The
     * application cannot rely on when this happens, which is exactly
     * why BA_SYNC exists; it is used by the non-persistent MMIO write
     * measurements of Fig. 7(b). @return CPU-free time.
     */
    sim::Tick drainAll(sim::Tick now);

    /**
     * Untimed delivery sink used only at power-cut time: bytes that
     * had already left the CPU as posted stores when the power died
     * land in device memory directly (no posted-queue transit).
     */
    using CrashSink = std::function<void(
        std::uint64_t offset, std::span<const std::uint8_t> data)>;

    /** Install the power-cut delivery sink (nullptr disables). */
    void setCrashSink(CrashSink sink) { crashSink_ = std::move(sink); }

    /**
     * Drop the contents of all dirty lines without posting them -
     * what a power failure does to data the application never flushed.
     * With an injector requesting torn lines (and a crash sink
     * installed), a random prefix of each dirty line's valid bytes is
     * delivered instead of lost: the stores had already been posted
     * when the power died. @return number of bytes that were lost.
     */
    std::uint64_t dropAll();

    /** Number of currently dirty lines. */
    std::uint32_t dirtyLines() const;

    /** Bytes buffered in dirty lines right now. */
    std::uint64_t dirtyBytes() const;

    /** Total lines evicted due to capacity pressure. */
    std::uint64_t capacityEvictions() const { return evictions_.value(); }

    /** Install the rig's fault injector (nullptr disables). */
    void setFaultInjector(sim::FaultInjector *f) { faults_ = f; }

    /** Install the rig's tracer (nullptr disables). */
    void setTracer(sim::Tracer *t) { tracer_ = t; }

    /** Attach eviction counter + occupancy gauges under @p prefix ("wc"). */
    void
    registerMetrics(sim::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        reg.addCounter(prefix + ".capacity_evictions", evictions_);
        reg.addGauge(prefix + ".dirty_lines", [this] {
            return static_cast<double>(dirtyLines());
        });
        reg.addGauge(prefix + ".dirty_bytes", [this] {
            return static_cast<double>(dirtyBytes());
        });
    }

  private:
    struct Line
    {
        std::uint64_t base = 0; // line-aligned window offset
        std::array<std::uint8_t, WcConfig::lineBytes> data{};
        /** Bit i set: data[i] holds a store not yet posted. */
        std::uint64_t valid = 0;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    WcConfig cfg_;
    Sink sink_;
    CrashSink crashSink_;
    sim::FaultInjector *faults_ = nullptr;
    sim::Tracer *tracer_ = nullptr;
    std::vector<Line> lines_;
    std::uint64_t lruCounter_ = 0;
    sim::Counter evictions_{"wc.capacityEvictions"};

    Line *findLine(std::uint64_t base);
    Line &acquireLine(sim::Tick &now, std::uint64_t base);
    sim::Tick evict(sim::Tick now, Line &line);
    bool lineFull(const Line &line) const;
};

} // namespace bssd::host

#endif // BSSD_HOST_WC_BUFFER_HH

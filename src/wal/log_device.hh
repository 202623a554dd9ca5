/**
 * @file
 * The write-ahead-log device abstraction (Section IV).
 *
 * A database engine's logging subsystem sees exactly three operations:
 * append a record, commit (make everything appended so far durable),
 * and - after a crash - recover the durable byte stream. The four
 * implementations map to the paper's four configurations:
 *
 *  - BlockWal : conventional WAL over block I/O (write() + fsync());
 *               page-aligned writes, partial log pages rewritten.
 *  - BaWal    : the paper's BA-WAL on 2B-SSD - byte-granular appends
 *               over MMIO, BA_SYNC commits, double-buffered BA_FLUSH.
 *  - PmWal    : heterogeneous-memory WAL (Fig. 10) - records buffered
 *               in host PM, lazily destaged through the block stack.
 *  - AsyncWal : asynchronous commit - the no-durability upper bound.
 */

#ifndef BSSD_WAL_LOG_DEVICE_HH
#define BSSD_WAL_LOG_DEVICE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::wal
{

/** Interface between a database logging subsystem and its log store. */
class LogDevice
{
  public:
    virtual ~LogDevice() = default;

    /**
     * Append a framed record to the log.
     * @return CPU-free time; the record is buffered but NOT durable.
     */
    virtual sim::Tick append(sim::Tick now,
                             std::span<const std::uint8_t> record) = 0;

    /**
     * Make every record appended before @p now durable.
     * @return time at which durability holds.
     */
    virtual sim::Tick commit(sim::Tick now) = 0;

    /**
     * Simulate a crash (power loss) at time @p t, then power-on.
     * After this call recoverContents() reflects what survived.
     */
    virtual void crash(sim::Tick t) = 0;

    /**
     * The durable log byte stream after a crash, in append order.
     * Callers parse it with the record framing (wal/record.hh), which
     * detects torn or lost tails.
     */
    virtual std::vector<std::uint8_t> recoverContents() = 0;

    /**
     * End recovery: @p kept is the prefix of recoverContents() that
     * the engine replayed, and the next append must land right behind
     * it. A log whose append position is host state that crash()
     * loses restarts there; the default keeps the position the log
     * already has.
     */
    virtual void resume(std::span<const std::uint8_t> kept) { (void)kept; }

    /** Human-readable configuration name (for benchmark tables). */
    virtual std::string name() const = 0;

    /** Total log payload bytes appended by the engine. */
    virtual std::uint64_t bytesAppended() const = 0;

    /** Total bytes the log pushed to the device/PM (write cost). */
    virtual std::uint64_t bytesToStore() const = 0;

    /**
     * True when the log region is nearly full and the engine should
     * checkpoint its state and truncate the log.
     */
    virtual bool needsCheckpoint() const { return false; }

    /** Restart the log after a checkpoint. Default: no-op. */
    virtual void truncate(sim::Tick now) { (void)now; }

    /**
     * Chunk granularity of the recovered stream: 0 means records are
     * contiguous; a non-zero value means records never straddle
     * chunk boundaries and the tail of each chunk may be padding
     * (the double-buffered logs). Feed to wal::parseLogStream().
     */
    virtual std::uint64_t recoveryChunkBytes() const { return 0; }

    /**
     * Install the rig's tracer into the log path. The base class
     * stores the pointer and every implementation wraps commit() in a
     * "wal"/"commit" span with it, so a request's critical path shows
     * the log layer between the store above and the device below.
     * Implementations that also trace their media override this and
     * forward the tracer down.
     */
    virtual void setTracer(sim::Tracer *t) { tracer_ = t; }

    /**
     * Attach the log's statistics to @p reg under @p prefix ("wal").
     * The default covers the byte counters every implementation has;
     * overrides add their own and should call this base version.
     */
    virtual void
    registerMetrics(sim::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        reg.addGauge(prefix + ".bytes_appended", [this] {
            return static_cast<double>(bytesAppended());
        });
        reg.addGauge(prefix + ".bytes_to_store", [this] {
            return static_cast<double>(bytesToStore());
        });
    }

  protected:
    /** Rig tracer; null = untraced (see setTracer). */
    sim::Tracer *tracer_ = nullptr;
};

} // namespace bssd::wal

#endif // BSSD_WAL_LOG_DEVICE_HH

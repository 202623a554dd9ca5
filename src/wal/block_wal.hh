/**
 * @file
 * Conventional write-ahead log over block I/O.
 *
 * The paper's baseline (Section IV-A): every commit issues write() of
 * the log pages touched since the last commit - padded and aligned to
 * 4 KB, so a partially-filled log page is rewritten again and again -
 * followed by fsync(), which costs a syscall plus the device FLUSH.
 */

#ifndef BSSD_WAL_BLOCK_WAL_HH
#define BSSD_WAL_BLOCK_WAL_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "ssd/ssd_device.hh"
#include "wal/log_device.hh"

namespace bssd::wal
{

/** Tunables of the block-I/O WAL path. */
struct BlockWalConfig
{
    /** Byte offset of the log region on the device. */
    std::uint64_t regionOffset = 0;
    /** Size of the log region (engines checkpoint before it fills). */
    std::uint64_t regionBytes = 64 * sim::MiB;
    /** Kernel cost of the write() path (VFS + block layer + NVMe). */
    sim::Tick writeSyscall = sim::usOf(4);
    /** Kernel cost of fsync() excluding the device flush itself. */
    sim::Tick fsyncSyscall = sim::usOf(3);
    /** Host memcpy cost per 64 B line when staging a record. */
    sim::Tick stageCostPerLine = sim::nsOf(2);
};

/** write()+fsync() WAL on a block SSD. */
class BlockWal : public LogDevice
{
  public:
    BlockWal(ssd::SsdDevice &dev, const BlockWalConfig &cfg = {});
    ~BlockWal() override;

    sim::Tick append(sim::Tick now,
                     std::span<const std::uint8_t> record) override;
    sim::Tick commit(sim::Tick now) override;
    void crash(sim::Tick t) override;
    std::vector<std::uint8_t> recoverContents() override;
    std::string name() const override { return "block-wal"; }
    std::uint64_t bytesAppended() const override { return appendPos_; }
    std::uint64_t bytesToStore() const override { return bytesWritten_; }

    /** Restart the log (checkpoint complete); trims the region. */
    void truncate(sim::Tick now) override;

    bool
    needsCheckpoint() const override
    {
        return appendPos_ >= cfg_.regionBytes * 8 / 10;
    }

    /** Commits issued (each is a write+fsync pair). */
    std::uint64_t commits() const { return commits_.value(); }

    void
    registerMetrics(sim::MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        LogDevice::registerMetrics(reg, prefix);
        reg.addCounter(prefix + ".commits", commits_);
    }

  private:
    ssd::SsdDevice &dev_;
    BlockWalConfig cfg_;
    /** Host-memory image of the log, zero padded to a whole page:
     *  commits write their pages straight from it. */
    std::vector<std::uint8_t> staged_;
    std::uint64_t appendPos_ = 0;
    std::uint64_t durablePos_ = 0;
    std::uint64_t bytesWritten_ = 0;
    sim::Counter commits_{"blockwal.commits"};
};

} // namespace bssd::wal

#endif // BSSD_WAL_BLOCK_WAL_HH

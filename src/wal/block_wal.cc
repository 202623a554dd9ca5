#include "wal/block_wal.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bssd::wal
{

BlockWal::BlockWal(ssd::SsdDevice &dev, const BlockWalConfig &cfg)
    : dev_(dev), cfg_(cfg)
{
    dev_.domain().adopt(this, sizeof(*this), "wal.block");
    if (cfg_.regionOffset + cfg_.regionBytes > dev_.capacityBytes())
        sim::fatal("block WAL region exceeds device capacity");
    staged_.reserve(sim::MiB);
}

BlockWal::~BlockWal()
{
    dev_.domain().release(this);
}

sim::Tick
BlockWal::append(sim::Tick now, std::span<const std::uint8_t> record)
{
    BSSD_OWN_GUARD(this);
    if (appendPos_ + record.size() > cfg_.regionBytes) {
        sim::fatal("block WAL region full; engine must checkpoint "
                   "before ", cfg_.regionBytes, " bytes of log");
    }
    // Grow the image a whole zeroed page at a time, so the log pages a
    // commit writes are always complete in it.
    const std::uint64_t end = appendPos_ + record.size();
    const std::uint32_t ps = dev_.pageSize();
    if (staged_.size() < end)
        staged_.resize((end + ps - 1) / ps * ps, 0);
    std::copy(record.begin(), record.end(),
              staged_.begin() + static_cast<std::ptrdiff_t>(appendPos_));
    appendPos_ = end;
    return now + sim::nsOf(60) +
           ((record.size() + 63) / 64) * cfg_.stageCostPerLine;
}

sim::Tick
BlockWal::commit(sim::Tick now)
{
    BSSD_OWN_GUARD(this);
    if (durablePos_ == appendPos_)
        return now; // nothing new; fsync would be a no-op
    const sim::SpanId sp =
        tracer_ ? tracer_->beginSpan("wal", "commit", now) : 0;
    commits_.add();

    const std::uint32_t ps = dev_.pageSize();
    // Page-align: rewrite from the start of the page holding the first
    // non-durable byte (the partial-page rewrite the paper highlights)
    // through the page holding the last appended byte.
    std::uint64_t first_page = durablePos_ / ps;
    std::uint64_t last_page = (appendPos_ - 1) / ps;
    std::uint64_t len = (last_page - first_page + 1) * ps;

    sim::Tick t = now + cfg_.writeSyscall;
    auto iv = dev_.blockWrite(
        t, cfg_.regionOffset + first_page * ps,
        std::span(staged_).subspan(first_page * ps, len));
    bytesWritten_ += len;
    t = iv.end + cfg_.fsyncSyscall;
    t = dev_.flush(t);
    durablePos_ = appendPos_;
    if (sp != 0)
        tracer_->endSpan(sp, t);
    return t;
}

void
BlockWal::crash(sim::Tick)
{
    // The device is capacitor-backed; everything it acknowledged
    // stays. Host state (the staging buffer and positions) is lost.
    staged_.clear();
    appendPos_ = 0;
    durablePos_ = 0;
}

std::vector<std::uint8_t>
BlockWal::recoverContents()
{
    std::vector<std::uint8_t> out(cfg_.regionBytes);
    dev_.blockRead(0, cfg_.regionOffset, out);
    return out;
}

void
BlockWal::resume(std::span<const std::uint8_t> kept)
{
    // Reload the image up to the end of the replayed records, so the
    // next commit rewrites their tail page with them still in it and
    // the next recovery finds one unbroken sequence.
    const std::uint32_t ps = dev_.pageSize();
    staged_.assign((kept.size() + ps - 1) / ps * ps, 0);
    std::copy(kept.begin(), kept.end(), staged_.begin());
    appendPos_ = kept.size();
    durablePos_ = kept.size();
}

void
BlockWal::truncate(sim::Tick)
{
    dev_.trim(cfg_.regionOffset, cfg_.regionBytes);
    staged_.clear();
    appendPos_ = 0;
    durablePos_ = 0;
}

} // namespace bssd::wal

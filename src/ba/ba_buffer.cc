#include "ba/ba_buffer.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bssd::ba
{

namespace
{

bool
rangesOverlap(std::uint64_t a, std::uint64_t alen, std::uint64_t b,
              std::uint64_t blen)
{
    return a < b + blen && b < a + alen;
}

} // namespace

BaBuffer::BaBuffer(const BaConfig &cfg)
    : cfg_(cfg), data_(cfg.bufferBytes, 0), table_(cfg.maxEntries)
{
    if (cfg_.bufferBytes == 0 || cfg_.maxEntries == 0)
        sim::fatal("BA-buffer requires non-zero size and entries");
}

const MapEntry *
BaBuffer::find(Eid eid) const
{
    for (const auto &e : table_)
        if (e.valid && e.eid == eid)
            return &e;
    return nullptr;
}

void
BaBuffer::checkRange(std::uint64_t offset, std::uint64_t len) const
{
    if (offset + len > data_.size() || offset + len < offset) {
        throw BaError("BA-buffer range [" + std::to_string(offset) + ", +" +
                      std::to_string(len) + ") exceeds buffer of " +
                      std::to_string(data_.size()) + " bytes");
    }
}

void
BaBuffer::addEntry(Eid eid, std::uint64_t offset, std::uint64_t lba,
                   std::uint64_t length, std::uint32_t page_size)
{
    if (length == 0)
        throw BaError("BA_PIN length must be non-zero");
    if (length % page_size != 0 || offset % page_size != 0 ||
        lba % page_size != 0) {
        throw BaError("BA_PIN ranges must be multiples of the " +
                      std::to_string(page_size) + "-byte page size");
    }
    checkRange(offset, length);
    if (find(eid))
        throw BaError("BA_PIN entry id " + std::to_string(eid) +
                      " already in use");

    MapEntry *slot = nullptr;
    for (auto &e : table_) {
        if (e.valid) {
            if (rangesOverlap(e.startOffset, e.length, offset, length)) {
                throw BaError("BA_PIN buffer range overlaps entry " +
                              std::to_string(e.eid));
            }
            if (rangesOverlap(e.startLba, e.length, lba, length)) {
                throw BaError("BA_PIN LBA range overlaps entry " +
                              std::to_string(e.eid));
            }
        } else if (!slot) {
            slot = &e;
        }
    }
    if (!slot)
        throw BaError("BA-buffer mapping table full (" +
                      std::to_string(cfg_.maxEntries) + " entries)");
    *slot = MapEntry{eid, offset, lba, length, true};
}

void
BaBuffer::removeEntry(Eid eid)
{
    for (auto &e : table_) {
        if (e.valid && e.eid == eid) {
            e.valid = false;
            return;
        }
    }
    throw BaError("unknown BA entry id " + std::to_string(eid));
}

std::optional<MapEntry>
BaBuffer::entry(Eid eid) const
{
    const MapEntry *e = find(eid);
    return e ? std::optional<MapEntry>(*e) : std::nullopt;
}

std::vector<MapEntry>
BaBuffer::entries() const
{
    std::vector<MapEntry> out;
    for (const auto &e : table_)
        if (e.valid)
            out.push_back(e);
    return out;
}

bool
BaBuffer::lbaPinned(std::uint64_t lba, std::uint64_t len) const
{
    for (const auto &e : table_)
        if (e.valid && rangesOverlap(e.startLba, e.length, lba, len))
            return true;
    return false;
}

std::uint32_t
BaBuffer::entryCount() const
{
    std::uint32_t n = 0;
    for (const auto &e : table_)
        n += e.valid ? 1 : 0;
    return n;
}

void
BaBuffer::postWrite(sim::Tick arrival, std::uint64_t offset,
                    std::span<const std::uint8_t> data)
{
    checkRange(offset, data.size());
    pending_.push_back(Pending{arrival, offset, arena_.size(), data.size()});
    arena_.insert(arena_.end(), data.begin(), data.end());
    pendingBytes_ += data.size();
}

void
BaBuffer::settleTo(sim::Tick t)
{
    // Posted writes apply in the order they were posted, which is the
    // order the link delivers them: the arrived prefix of the queue
    // settles.
    while (head_ < pending_.size() && pending_[head_].arrival <= t) {
        const Pending &p = pending_[head_++];
        std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(p.pos),
                    p.len,
                    data_.begin() + static_cast<std::ptrdiff_t>(p.offset));
        pendingBytes_ -= p.len;
    }
    if (head_ == pending_.size()) {
        resetQueue();
        return;
    }
    // Compact once the settled bytes outnumber the ones in flight, so
    // the arena stays within twice pendingBytes(); each settled byte
    // pays for at most one byte moved.
    const std::size_t settled = pending_[head_].pos;
    if (settled > arena_.size() - settled) {
        arena_.erase(arena_.begin(),
                     arena_.begin() + static_cast<std::ptrdiff_t>(settled));
        pending_.erase(pending_.begin(),
                       pending_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
        for (Pending &p : pending_)
            p.pos -= settled;
    }
}

std::uint64_t
BaBuffer::powerLossAt(sim::Tick t, sim::Tick dropAfter)
{
    settleTo(std::min(t, dropAfter));
    const std::uint64_t lost = pendingBytes_;
    resetQueue();
    return lost;
}

void
BaBuffer::deviceWrite(std::uint64_t offset,
                      std::span<const std::uint8_t> data)
{
    checkRange(offset, data.size());
    std::copy(data.begin(), data.end(),
              data_.begin() + static_cast<std::ptrdiff_t>(offset));
}

void
BaBuffer::read(std::uint64_t offset, std::span<std::uint8_t> out) const
{
    checkRange(offset, out.size());
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(offset),
                out.size(), out.begin());
}

std::span<std::uint8_t>
BaBuffer::span(std::uint64_t offset, std::uint64_t len)
{
    checkRange(offset, len);
    return std::span<std::uint8_t>(data_).subspan(offset, len);
}

void
BaBuffer::clear()
{
    std::fill(data_.begin(), data_.end(), 0);
    for (auto &e : table_)
        e.valid = false;
    resetQueue();
}

void
BaBuffer::restore(std::span<const std::uint8_t> contents,
                  const std::vector<MapEntry> &table)
{
    if (contents.size() != data_.size())
        sim::panic("BA-buffer restore size mismatch");
    std::copy(contents.begin(), contents.end(), data_.begin());
    for (auto &e : table_)
        e.valid = false;
    std::size_t i = 0;
    for (const auto &e : table) {
        if (i >= table_.size())
            sim::panic("BA-buffer restore: too many table entries");
        table_[i++] = e;
    }
    resetQueue();
}

void
BaBuffer::resetQueue()
{
    pending_.clear();
    head_ = 0;
    arena_.clear();
    pendingBytes_ = 0;
}

} // namespace bssd::ba

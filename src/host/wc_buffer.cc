#include "host/wc_buffer.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace bssd::host
{

static_assert(WcConfig::lineBytes == 64,
              "a WC line's valid bytes are one 64-bit mask");

namespace
{

/** Valid-mask bits of bytes [first, first + n) of a line, 0 < n <= 64. */
std::uint64_t
byteBits(std::uint64_t first, std::uint64_t n)
{
    return (n == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << n) - 1)
           << first;
}

/** @p mask without its lowest run of set bits (adding the lowest set
 *  bit carries through the run and clears it). */
std::uint64_t
dropLowestRun(std::uint64_t mask)
{
    return mask & (mask + (mask & (~mask + 1)));
}

} // namespace

WcBuffer::WcBuffer(const WcConfig &cfg, Sink sink)
    : cfg_(cfg), sink_(std::move(sink))
{
    if (cfg_.lines == 0)
        sim::fatal("WC buffer needs at least one line");
    if (!sink_)
        sim::fatal("WC buffer requires a posted-write sink");
}

bool
WcBuffer::lineFull(const Line &line) const
{
    return line.valid == ~std::uint64_t(0);
}

WcBuffer::Line *
WcBuffer::findLine(std::uint64_t base)
{
    for (auto &l : lines_)
        if (l.dirty && l.base == base)
            return &l;
    return nullptr;
}

sim::Tick
WcBuffer::evict(sim::Tick now, Line &line)
{
    if (!line.dirty)
        return now;
    sim::tracepointHit(faults_, tracer_, sim::Tp::wcEvict, now);
    // Post each contiguous run of valid bytes within the line.
    for (std::uint64_t mask = line.valid; mask != 0;
         mask = dropLowestRun(mask)) {
        const int i = std::countr_zero(mask);
        const int n = std::countr_one(mask >> i);
        now = sink_(now, line.base + i,
                    std::span<const std::uint8_t>(line.data.data() + i,
                                                  n));
    }
    line.dirty = false;
    return now;
}

WcBuffer::Line &
WcBuffer::acquireLine(sim::Tick &now, std::uint64_t base)
{
    if (Line *l = findLine(base)) {
        l->lruStamp = ++lruCounter_;
        return *l;
    }
    // Reuse a clean slot if available.
    for (auto &l : lines_) {
        if (!l.dirty) {
            l.base = base;
            l.valid = 0;
            l.dirty = true;
            l.lruStamp = ++lruCounter_;
            return l;
        }
    }
    if (lines_.size() < cfg_.lines) {
        Line l;
        l.base = base;
        l.dirty = true;
        l.lruStamp = ++lruCounter_;
        lines_.push_back(l);
        return lines_.back();
    }
    // Capacity pressure: evict the least recently used line.
    auto victim = std::min_element(
        lines_.begin(), lines_.end(), [](const Line &a, const Line &b) {
            return a.lruStamp < b.lruStamp;
        });
    now = evict(now, *victim);
    evictions_.add();
    victim->base = base;
    victim->valid = 0;
    victim->dirty = true;
    victim->lruStamp = ++lruCounter_;
    return *victim;
}

sim::Tick
WcBuffer::write(sim::Tick now, std::uint64_t offset,
                std::span<const std::uint8_t> data)
{
    std::uint64_t pos = 0;
    std::uint64_t lines_touched = 0;
    while (pos < data.size()) {
        std::uint64_t addr = offset + pos;
        std::uint64_t base = addr - (addr % cfg_.lineBytes);
        std::uint64_t in_line = addr - base;
        std::uint64_t n =
            std::min<std::uint64_t>(cfg_.lineBytes - in_line,
                                    data.size() - pos);
        Line &line = acquireLine(now, base);
        std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(pos), n,
                    line.data.begin() + static_cast<std::ptrdiff_t>(in_line));
        line.valid |= byteBits(in_line, n);
        ++lines_touched;
        // A completely filled line combines into one burst and is
        // posted immediately (x86 WC behaviour for streaming stores).
        if (lineFull(line))
            now = evict(now, line);
        pos += n;
    }
    return now + lines_touched * cfg_.storeCostPerLine;
}

sim::Tick
WcBuffer::flushRange(sim::Tick now, std::uint64_t offset, std::uint64_t len)
{
    sim::tracepointHit(faults_, tracer_, sim::Tp::wcFlush, now);
    // An empty range covers no line: nothing to clflush or post, only
    // the fence.
    if (len == 0)
        return now + cfg_.mfenceCost;
    std::uint64_t end =
        len > ~std::uint64_t(0) - offset ? ~std::uint64_t(0) : offset + len;
    // clflush executes once per cache line covered by the range,
    // whether or not the line currently sits in a WC buffer.
    std::uint64_t first_line = offset / cfg_.lineBytes;
    std::uint64_t last_line = (end - 1) / cfg_.lineBytes;
    now += (last_line - first_line + 1) * cfg_.clflushCost;
    for (auto &l : lines_) {
        if (!l.dirty)
            continue;
        if (l.base + cfg_.lineBytes <= offset || l.base >= end)
            continue;
        now = evict(now, l);
    }
    // clflush is only ordered by mfence; the pair is indivisible here.
    now += cfg_.mfenceCost;
    return now;
}

sim::Tick
WcBuffer::flushAll(sim::Tick now)
{
    sim::tracepointHit(faults_, tracer_, sim::Tp::wcFlush, now);
    for (auto &l : lines_) {
        if (!l.dirty)
            continue;
        now += cfg_.clflushCost;
        now = evict(now, l);
    }
    now += cfg_.mfenceCost;
    return now;
}

sim::Tick
WcBuffer::drainAll(sim::Tick now)
{
    for (auto &l : lines_)
        if (l.dirty)
            now = evict(now, l);
    return now;
}

std::uint64_t
WcBuffer::dropAll()
{
    const bool torn = faults_ && faults_->wcPartialLineOnPowerCut() &&
                      crashSink_;
    std::uint64_t lost = 0;
    for (auto &l : lines_) {
        if (!l.dirty)
            continue;
        const std::uint64_t valid = std::popcount(l.valid);
        const std::uint64_t keep =
            torn ? faults_->wcPartialKeep(valid) : 0;
        // Deliver the first `keep` valid bytes (address order), as
        // contiguous runs: those stores had already been posted.
        std::uint64_t delivered = 0;
        for (std::uint64_t mask = l.valid; mask != 0 && delivered < keep;
             mask = dropLowestRun(mask)) {
            const int i = std::countr_zero(mask);
            const std::uint64_t n = std::min<std::uint64_t>(
                std::countr_one(mask >> i), keep - delivered);
            crashSink_(l.base + i, std::span<const std::uint8_t>(
                                       l.data.data() + i, n));
            delivered += n;
        }
        lost += valid - keep;
        l.dirty = false;
    }
    return lost;
}

std::uint32_t
WcBuffer::dirtyLines() const
{
    std::uint32_t n = 0;
    for (const auto &l : lines_)
        n += l.dirty ? 1 : 0;
    return n;
}

std::uint64_t
WcBuffer::dirtyBytes() const
{
    std::uint64_t n = 0;
    for (const auto &l : lines_) {
        if (l.dirty)
            n += std::popcount(l.valid);
    }
    return n;
}

} // namespace bssd::host

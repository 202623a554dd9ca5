#include "sim/resource.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bssd::sim
{

Interval
FifoResource::reserve(Tick earliest, Tick duration)
{
    Tick start = std::max(earliest, nextFree_);
    Tick end = start + duration;
    nextFree_ = end;
    busy_ += duration;
    ++grants_;
    return {start, end};
}

void
FifoResource::reset()
{
    nextFree_ = 0;
    busy_ = 0;
    grants_ = 0;
}

DrainingBuffer::DrainingBuffer(std::uint64_t capacityBytes,
                               Bandwidth drainRate)
    : capacity_(capacityBytes), drainRate_(drainRate)
{
    if (capacity_ == 0)
        fatal("DrainingBuffer requires non-zero capacity");
    if (drainRate_.bytesPerNs <= 0.0)
        fatal("DrainingBuffer requires a positive drain rate");
}

void
DrainingBuffer::drainTo(Tick t)
{
    if (t <= lastUpdate_)
        return;
    auto drained = static_cast<std::uint64_t>(
        static_cast<double>(t - lastUpdate_) * drainRate_.bytesPerNs);
    occupancy_ = drained >= occupancy_ ? 0 : occupancy_ - drained;
    lastUpdate_ = t;
}

std::uint64_t
DrainingBuffer::occupancyAt(Tick t) const
{
    if (t <= lastUpdate_)
        return occupancy_;
    auto drained = static_cast<std::uint64_t>(
        static_cast<double>(t - lastUpdate_) * drainRate_.bytesPerNs);
    return drained >= occupancy_ ? 0 : occupancy_ - drained;
}

Tick
DrainingBuffer::drainedAt() const
{
    return lastUpdate_ + drainRate_.transferTime(occupancy_);
}

Tick
DrainingBuffer::admit(Tick ready, std::uint64_t bytes)
{
    if (bytes > capacity_) {
        // An oversized request streams through the buffer at drain rate.
        drainTo(ready);
        Tick spill = drainRate_.transferTime(occupancy_ + bytes - capacity_);
        occupancy_ = capacity_;
        lastUpdate_ = ready + spill;
        return lastUpdate_;
    }
    drainTo(ready);
    Tick t = ready;
    if (occupancy_ + bytes > capacity_) {
        // Wait until enough has drained to admit the whole request.
        std::uint64_t need = occupancy_ + bytes - capacity_;
        t = ready + drainRate_.transferTime(need);
        drainTo(t);
    }
    occupancy_ += bytes;
    lastUpdate_ = t;
    return t;
}

} // namespace bssd::sim

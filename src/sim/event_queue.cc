#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace bssd::sim
{

void
EventQueue::schedule(Tick when, Callback cb)
{
    // A domain's queue is adopted by that domain: only its own window
    // (or code outside every window, like barrier delivery) schedules.
    BSSD_OWN_GUARD(this);
    if (when < now_)
        panic("event scheduled in the past: ", when, " < ", now_);
    if (freeSlots_.empty()) {
        if (slots_.size() > ~std::uint32_t(0))
            panic("event slab exhausted");
        freeSlots_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot] = std::move(cb);
    heap_.push_back(HeapEntry{when, nextSeq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), LaterFirst{});
}

std::size_t
EventQueue::runWindow(Tick limit)
{
    const std::uint64_t before = fired_;
    while (!heap_.empty() && heap_.front().when < limit) {
        const HeapEntry e = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), LaterFirst{});
        heap_.pop_back();
        now_ = e.when;
        // Move the callback out and free its slot before invoking, so
        // the callback can schedule freely, even into its own slot or
        // past the slab's end (which may reallocate it).
        Callback cb = std::move(slots_[e.slot]);
        freeSlots_.push_back(e.slot);
        ++fired_;
        cb();
    }
    return static_cast<std::size_t>(fired_ - before);
}

std::size_t
EventQueue::runUntil(Tick when)
{
    if (when == maxTick)
        panic("EventQueue::runUntil(maxTick): use runWindow(maxTick)");
    const std::size_t fired = runWindow(when + 1);
    advanceTo(when);
    return fired;
}

void
EventQueue::advanceTo(Tick when)
{
    if (when < now_)
        panic("EventQueue::advanceTo moving backwards");
    now_ = when;
}

} // namespace bssd::sim

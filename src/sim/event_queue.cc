#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace bssd::sim
{

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != kNilSlot) {
        std::uint32_t slot = freeHead_;
        freeHead_ = slots_[slot].nextFree;
        return slot;
    }
    if (slots_.size() >= kNilSlot)
        panic("event slab exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.cb.reset(); // release captured state eagerly
    ++s.gen;      // odd -> even: free; invalidates the id + heap entry
    s.nextFree = freeHead_;
    s.inBatch = false; // a reused slot starts with clean batch state
    freeHead_ = slot;
    --live_;
}

EventQueue::EventId
EventQueue::schedule(Tick when, Callback cb)
{
    // A domain's queue is adopted by that domain: only its own window
    // (or code outside every window, like barrier delivery) schedules.
    BSSD_OWN_GUARD(this);
    if (when < now_)
        panic("event scheduled in the past: ", when, " < ", now_);
    std::uint32_t slot = allocSlot();
    Slot &s = slots_[slot];
    s.cb = std::move(cb);
    ++s.gen; // even -> odd: occupied
    heap_.push_back(HeapEntry{when, nextSeq_++, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), LaterFirst{});
    ++live_;
    return makeId(slot, s.gen);
}

EventQueue::EventId
EventQueue::scheduleIn(Tick delay, Callback cb)
{
    return schedule(now_ + delay, std::move(cb));
}

bool
EventQueue::deschedule(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size() || (gen & 1u) == 0 ||
        slots_[slot].gen != gen) {
        return false; // already fired, already cancelled, or bogus
    }
    // A slot in runWindow's drained batch has no heap entry left to go
    // stale; releasing it is enough (the fire loop's generation check
    // skips it).
    const bool inBatch = slots_[slot].inBatch;
    releaseSlot(slot);
    if (!inBatch) {
        ++stale_;
        maybeCompact();
    }
    return true;
}

bool
EventQueue::pruneTop()
{
    while (!heap_.empty()) {
        const HeapEntry &e = heap_.front();
        if (slots_[e.slot].gen == e.gen)
            return true;
        std::pop_heap(heap_.begin(), heap_.end(), LaterFirst{});
        heap_.pop_back();
        --stale_;
    }
    return false;
}

EventQueue::HeapEntry
EventQueue::popTop()
{
    HeapEntry e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), LaterFirst{});
    heap_.pop_back();
    return e;
}

void
EventQueue::maybeCompact()
{
    // Heavy schedule/cancel churn would otherwise grow the heap without
    // bound; once cancelled entries dominate, filter them in one pass.
    if (stale_ < 1024 || stale_ * 2 < heap_.size())
        return;
    std::erase_if(heap_, [this](const HeapEntry &e) {
        return slots_[e.slot].gen != e.gen;
    });
    std::make_heap(heap_.begin(), heap_.end(), LaterFirst{});
    stale_ = 0;
}

std::size_t
EventQueue::run(std::size_t limit)
{
    std::size_t fired = 0;
    while (fired < limit && pruneTop()) {
        HeapEntry e = popTop();
        now_ = e.when;
        // Move the callback out and free the slot before invoking, so
        // the callback can freely schedule/deschedule (including its
        // own, now stale, id).
        Callback cb = std::move(slots_[e.slot].cb);
        releaseSlot(e.slot);
        ++fired;
        ++fired_;
        cb();
    }
    return fired;
}

std::size_t
EventQueue::runUntil(Tick when)
{
    std::size_t fired = 0;
    while (pruneTop() && heap_.front().when <= when) {
        HeapEntry e = popTop();
        now_ = e.when;
        Callback cb = std::move(slots_[e.slot].cb);
        releaseSlot(e.slot);
        ++fired;
        ++fired_;
        cb();
    }
    advanceTo(when);
    return fired;
}

Tick
EventQueue::nextEventTime()
{
    return pruneTop() ? heap_.front().when : maxTick;
}

std::size_t
EventQueue::runWindow(Tick limit)
{
    std::size_t fired = 0;
    while (pruneTop() && heap_.front().when < limit) {
        // Drain the run of live entries sharing the earliest tick into
        // the SoA batch. popTop() only re-heapifies; liveness is
        // checked here so stale entries inside the run are dropped in
        // the same pass.
        const Tick when = heap_.front().when;
        batchSlots_.clear();
        batchGens_.clear();
        do {
            HeapEntry e = popTop();
            if (slots_[e.slot].gen != e.gen) {
                --stale_;
                continue;
            }
            slots_[e.slot].inBatch = true;
            batchSlots_.push_back(e.slot);
            batchGens_.push_back(e.gen);
        } while (!heap_.empty() && heap_.front().when == when);
        now_ = when;
        for (std::size_t i = 0; i < batchSlots_.size(); ++i) {
            Slot &s = slots_[batchSlots_[i]];
            // A callback earlier in the batch may have descheduled
            // this one (generation moved on) — skip it.
            if (s.gen != batchGens_[i])
                continue;
            Callback cb = std::move(s.cb);
            releaseSlot(batchSlots_[i]);
            ++fired;
            ++fired_;
            cb();
        }
    }
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

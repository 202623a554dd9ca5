/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Device and host operations are timed with the resource calendars in
 * resource.hh (DESIGN.md section 6), so few things run as events: the
 * parallel engine's cross-domain messages (delivered into the target
 * domain's queue at each barrier), the fleet host's own timers (the
 * router's arrival cycle, the rebalance drain poll) and the
 * capacitor-powered BA-buffer dump on power loss (ba/recovery.cc).
 *
 * Scheduling and firing allocate nothing once the queue has warmed up:
 * the binary heap holds POD (when, seq, slot) entries, and callbacks
 * live in a slab of InlineCallbacks, with inline storage for captures
 * up to InlineCallback::kInlineBytes, whose slots are reused through a
 * free-slot stack. There is no cancellation; an event fires exactly
 * once.
 */

#ifndef BSSD_SIM_EVENT_QUEUE_HH
#define BSSD_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace bssd::sim
{

/**
 * A move-only `void()` callable with small-buffer optimization.
 *
 * Captures up to kInlineBytes (with fundamental alignment and a
 * noexcept move constructor) are stored inline — no heap allocation on
 * the common path. Larger or throwing-move callables fall back to the
 * heap transparently.
 */
class InlineCallback
{
  public:
    /** Inline capture budget; larger callables go to the heap. */
    static constexpr std::size_t kInlineBytes = 48;

    InlineCallback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    InlineCallback(F &&f) // NOLINT: implicit by design, like std::function
    {
        using Fn = std::remove_cvref_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    InlineCallback(InlineCallback &&o) noexcept { takeFrom(o); }

    InlineCallback &
    operator=(InlineCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            takeFrom(o);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Destroy the held callable (and release its captures) now. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inlineOps{
        [](void *b) { (*static_cast<Fn *>(b))(); },
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *b) noexcept { static_cast<Fn *>(b)->~Fn(); }};

    template <typename Fn>
    static constexpr Ops heapOps{
        [](void *b) { (**static_cast<Fn **>(b))(); },
        [](void *dst, void *src) noexcept {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *b) noexcept { delete *static_cast<Fn **>(b); }};

    void
    takeFrom(InlineCallback &o) noexcept
    {
        if (o.ops_) {
            ops_ = o.ops_;
            ops_->relocate(buf_, o.buf_);
            o.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/**
 * A time-ordered queue of callbacks. Events scheduled for the same tick
 * fire in scheduling order (a monotonically increasing sequence number
 * breaks ties), which keeps runs fully deterministic.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Current simulated time of this queue. */
    Tick now() const { return now_; }

    /** Schedule @p cb to run at absolute time @p when. @pre when >= now() */
    void schedule(Tick when, Callback cb);

    /**
     * Run all events with time strictly < @p limit, without advancing
     * now() to @p limit afterwards (now() stays at the last fired
     * event). This is the parallel engine's per-window work loop: the
     * strict bound keeps events AT the window edge for the next round,
     * after barrier messages for that tick have been delivered.
     * @return number of events fired.
     */
    std::size_t runWindow(Tick limit);

    /**
     * Run all events with time <= @p when, then advance now() to
     * @p when. @pre when < maxTick
     * @return number of events fired.
     */
    std::size_t runUntil(Tick when);

    /** Earliest pending event's time, or maxTick when none is pending. */
    Tick
    nextEventTime() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

    /** Advance time without running anything. @pre when >= now(). */
    void advanceTo(Tick when);

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Events fired over this queue's lifetime. */
    std::uint64_t totalFired() const { return fired_; }

  private:
    /** POD heap node; the callback stays in the slab. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Min-heap order on (when, seq). */
    struct LaterFirst
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    std::vector<HeapEntry> heap_;
    /** Callback slab; a slot is live while a heap entry names it. */
    std::vector<Callback> slots_;
    /** Slots whose event has fired, reused before the slab grows. */
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t fired_ = 0;
};

} // namespace bssd::sim

#endif // BSSD_SIM_EVENT_QUEUE_HH

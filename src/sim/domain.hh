/**
 * @file
 * Simulation domain: one independently-clocked partition of a run.
 *
 * A Domain owns a slab-pooled EventQueue and is the unit the parallel
 * engine schedules onto worker threads — one domain per device/rig,
 * with the host as its own domain. Everything inside a domain (its
 * queue, its rig's calendars, counters and tracer) is touched only by
 * the thread currently executing that domain's window, so no state
 * needs locking.
 *
 * Cross-domain communication goes through post(): an explicit mailbox
 * send that is buffered in the sender's outbox and delivered by the
 * engine at the next barrier, globally ordered by (delivery tick,
 * sender id, sender sequence). Because the serial engine delivers the
 * same messages in the same order, parallel execution is bit-identical
 * to serial. Scheduling directly onto another domain's queue would
 * bypass that ordering (and race under threads): each domain adopts its
 * queue, and EventQueue::schedule's ownership guard panics on a
 * foreign window's schedule in BSSD_DOMAIN_CHECK builds (DESIGN.md
 * section 16).
 */

#ifndef BSSD_SIM_DOMAIN_HH
#define BSSD_SIM_DOMAIN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::sim
{

class ParallelEngine;

/**
 * One partition of a simulation: a named event queue plus an outbox of
 * cross-domain messages. Standalone domains (not attached to an
 * engine) behave as plain queue owners; post() requires attachment.
 */
class Domain
{
  public:
    /** Id of a domain not (yet) attached to an engine. */
    static constexpr std::uint32_t kNoId = ~std::uint32_t(0);

    explicit Domain(std::string name = "domain")
        : name_(std::move(name))
    {
        adopt(&queue_, sizeof(queue_), "queue");
    }

    ~Domain() { release(&queue_); }

    Domain(const Domain &) = delete;
    Domain &operator=(const Domain &) = delete;

    const std::string &name() const { return name_; }

    /** This domain's private event queue. */
    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }

    /** Current simulated time of this domain. */
    Tick now() const { return queue_.now(); }

    /** Engine this domain is attached to (nullptr if standalone). */
    ParallelEngine *engine() const { return engine_; }

    /** Registration index within the engine (kNoId if standalone). */
    std::uint32_t id() const { return id_; }

    /**
     * Send @p cb to run in @p target's domain at absolute time
     * @p when. The message is buffered in this domain's outbox and
     * scheduled into the target at the engine's next barrier;
     * same-barrier messages are delivered in (when, sender id, sender
     * sequence) order, so delivery is deterministic for any thread
     * count.
     *
     * @p ctx carries the request identity: when the message runs in
     * @p target, the target's tracer (setTracer) has @p ctx pushed, so
     * every span the callback records stitches into the sending
     * request's tree. Messages with no single request identity (batch
     * channels) pass an empty context, which costs nothing.
     *
     * @pre both domains are attached to the same engine, a channel
     *      this→target exists, and when >= now() + channel lookahead
     *      (the conservative-synchronization contract; violating it
     *      could let the target run past @p when before the message
     *      lands). Violations panic.
     */
    void post(Domain &target, Tick when, TraceContext ctx,
              EventQueue::Callback cb);

    /**
     * Tracer receiving context pushes for messages posted INTO this
     * domain (owned by the rig living here; may be null). Only read
     * by the thread executing this domain's window.
     */
    void setTracer(Tracer *t) { tracer_ = t; }
    Tracer *tracer() const { return tracer_; }

    /** Cross-domain messages sent over this domain's lifetime. */
    std::uint64_t messagesSent() const { return nextSeq_ - 1; }

    /**
     * @name Ownership sanitizer (BSSD_DOMAIN_CHECK builds)
     *
     * The domain-ownership checker (DESIGN.md section 16). A rig
     * adopts the allocations its domain owns at construction, and
     * every domain adopts its own queue. BSSD_OWN_GUARD() sites on
     * hot mutation paths (EventQueue::schedule among them) then panic
     * when a thread executing another domain's window touches an
     * adopted span, through any level of indirection. Release builds
     * compile all of it to nothing.
     * @{
     */
#ifdef BSSD_DOMAIN_CHECK
    /** Register [obj, obj+bytes) as state owned by this domain.
     *  @p what names the span in violation panics ("ssd.flash").
     *  Nested spans are allowed (an adopted object inside an adopted
     *  object); the innermost covering span wins a lookup. */
    void adopt(const void *obj, std::size_t bytes, const char *what);

    /** Unregister a span before its memory is reused (dtors). */
    void release(const void *obj);

    /** Domain whose window the calling thread is executing, or
     *  nullptr outside engine execution (setup, teardown, tests). */
    static Domain *current();
#else
    void adopt(const void *, std::size_t, const char *) {}
    void release(const void *) {}
    static Domain *current() { return nullptr; }
#endif
    /** @} */

  private:
    friend class ParallelEngine;

    /** One buffered cross-domain send. */
    struct Message
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t target;
        EventQueue::Callback cb;
    };

    std::string name_;
    EventQueue queue_;
    ParallelEngine *engine_ = nullptr;
    Tracer *tracer_ = nullptr;
    std::uint32_t id_ = kNoId;
    std::uint64_t nextSeq_ = 1;
    std::vector<Message> outbox_;
};

#ifdef BSSD_DOMAIN_CHECK
namespace detail
{
/**
 * Implementation of BSSD_OWN_GUARD: panics (SimPanic) when the calling
 * thread is executing some domain's window and @p obj lies inside a
 * span adopted by a DIFFERENT domain of the same engine. Passes when
 * no window is executing, the span is unregistered, or its owner never
 * joined an engine (e.g. the replicated-WAL follower rig, driven by
 * direct calls from the primary's domain by design).
 */
void ownGuard(const void *obj);
} // namespace detail
#endif

} // namespace bssd::sim

/**
 * Assert that the calling thread may mutate @p obj under the
 * domain-ownership discipline. Place at the top of a component's
 * externally callable mutation paths; compiles to nothing unless the
 * build defines BSSD_DOMAIN_CHECK (CMake -DBSSD_DOMAIN_CHECK=ON).
 */
#ifdef BSSD_DOMAIN_CHECK
#define BSSD_OWN_GUARD(obj) ::bssd::sim::detail::ownGuard(obj)
#else
#define BSSD_OWN_GUARD(obj) ((void)0)
#endif

#endif // BSSD_SIM_DOMAIN_HH

/**
 * @file
 * Span-based request tracing on simulated ticks (DESIGN.md section 9).
 *
 * A Tracer records three event kinds, all stamped with simulated Ticks
 * rather than wall time:
 *
 *  - spans:    one per request or device-internal operation, opened at
 *              submission and closed at completion. Spans nest through
 *              an implicit stack - an ftl.write span opened while an
 *              ssd.blockWrite span is live becomes its child.
 *  - phases:   contiguous sub-intervals of the innermost live span
 *              (frontend, xfer, media, ...). The instrumented layers
 *              guarantee that the phases of a span partition it, which
 *              is what makes the per-phase sums reconcile with the
 *              end-to-end latency (tools/trace_dump --validate).
 *  - instants: point events. The 21 durability tracepoints
 *              (sim/tracepoint.hh) are recorded as instants through
 *              tracepointHit(), so fault injection and tracing share
 *              one instrumentation surface.
 *
 * Cross-domain request stitching (DESIGN.md section 14): a
 * TraceContext carries a request's trace id plus the global id of its
 * parent span across domain boundaries, where the implicit span stack
 * cannot reach. Every span is minted a global id
 * ((stream + 1) << 32 | per-tracer sequence) that survives append(),
 * so a span recorded in a shard's tracer can name its parent in the
 * host's tracer through Event::xparent and the merged trace still
 * forms one tree per request. Contexts are established either
 * explicitly (pushContext/popContext around a routed op's execution)
 * or by the engine when a Domain::post carries one.
 *
 * Determinism: the tracer has no clock and no randomness of its own -
 * events land in call order and carry only simulated ticks, global
 * ids are (stream, sequence) pairs and trace ids are caller-supplied
 * sequence numbers, so the same seed produces a byte-identical trace
 * file at any engine thread count.
 *
 * Cost: call sites hold a `Tracer *` and skip everything when none is
 * installed (one predictable branch).
 */

#ifndef BSSD_SIM_TRACE_HH
#define BSSD_SIM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/ticks.hh"
#include "sim/tracepoint.hh"

namespace bssd::sim
{

/** Identifier of a live or finished span; 0 means "no span". */
using SpanId = std::uint32_t;

/**
 * A request identity carried across domain boundaries: the request's
 * trace id plus the global id of the span that caused the hop. Both 0
 * when no request is in scope (tracing disabled or background work).
 */
struct TraceContext
{
    /** Request (trace) id; 0 = none. */
    std::uint64_t trace = 0;
    /** Global id (Tracer::mintGid) of the parent span; 0 = none. */
    std::uint64_t parent = 0;
};

/**
 * Deterministic span/phase/instant recorder. One instance per rig,
 * single-threaded (the sweep-harness invariant), installed into the
 * component layers next to the FaultInjector.
 */
class Tracer
{
  public:
    struct Event
    {
        enum class Kind : std::uint8_t { span, phase, instant };

        Kind kind = Kind::instant;
        /** Interned category (component) string id. */
        std::uint32_t cat = 0;
        /** Interned name string id. */
        std::uint32_t name = 0;
        /** Span id (spans only; phases/instants leave it 0). */
        SpanId id = 0;
        /** Enclosing span at record time, or 0 at top level. */
        SpanId parent = 0;
        /** Request (trace) id, or 0 when not part of a request. */
        std::uint64_t trace = 0;
        /** Globally unique span id (spans only); stable across
         *  append(), unlike the local id/parent pair. */
        std::uint64_t gid = 0;
        /** Cross-tracer parent span's gid (top-level spans adopted by
         *  a TraceContext only; 0 when `parent` carries the link). */
        std::uint64_t xparent = 0;
        Tick start = 0;
        Tick end = 0;
    };

    /** Aggregated per-phase latency row (see phaseBreakdown()). */
    struct PhaseStat
    {
        std::string cat;
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t totalTicks = 0;
        std::uint64_t minTicks = 0;
        std::uint64_t maxTicks = 0;
        std::uint64_t p50 = 0;
        std::uint64_t p99 = 0;
    };

    /** @name Recording @{ */

    /**
     * Open a span for one operation. @p cat is the component lane
     * ("ssd", "ftl", "ba", ...), @p name the operation. Returns the
     * span's id; pass it to endSpan() when the operation's completion
     * tick is known. While live, the span is the implicit parent of
     * nested spans, phases and instants.
     */
    SpanId beginSpan(const char *cat, const char *name, Tick start);

    /** Close span @p id at @p end. Ignores id 0 (disabled tracer). */
    void endSpan(SpanId id, Tick end);

    /**
     * Record one phase [@p start, @p end) of the innermost live span.
     * The caller is responsible for phases partitioning their span.
     */
    void phase(const char *name, Tick start, Tick end);

    /** Record a point event under the innermost live span. */
    void instant(const char *cat, const char *name, Tick at);

    /**
     * Record a complete span [@p start, @p end) outside the implicit
     * stack. This is how overlapping request-root spans are recorded
     * (many routed ops are in flight at once, so begin/end nesting
     * would fabricate parent links): the span's tree position comes
     * entirely from @p ctx (trace id + cross-tracer parent) and the
     * caller-minted @p gid. @p gid 0 mints one here.
     * @return the span's gid (0 when tracing is off).
     */
    std::uint64_t recordSpan(const char *cat, const char *name, Tick start,
                             Tick end, TraceContext ctx,
                             std::uint64_t gid = 0);

    /** Innermost live span, or 0. */
    SpanId currentSpan() const { return stack_.empty() ? 0 : stack_.back(); }

    /** @name Trace-context propagation @{ */

    /**
     * Stream index for global span ids: gids mint as
     * ((stream + 1) << 32) | sequence. Give each per-domain tracer a
     * distinct stream (the domain id) before recording, so gids stay
     * unique after the merge.
     */
    void setStream(std::uint32_t stream) { stream_ = stream; }

    /** Mint the next global span id (0 while disabled). */
    std::uint64_t
    mintGid()
    {
        return enabled_ ? (std::uint64_t(stream_) + 1) << 32 | ++gidSeq_ : 0;
    }

    /**
     * Enter @p ctx: until the matching popContext(), top-level spans
     * adopt ctx.trace and link to ctx.parent through Event::xparent
     * (nested spans keep inheriting from their local parent). No-op
     * while disabled — zero work, zero allocation.
     */
    void
    pushContext(TraceContext ctx)
    {
        if (enabled_ && ctx.trace != 0)
            ctxStack_.push_back(ctx);
    }

    void
    popContext()
    {
        if (enabled_ && !ctxStack_.empty())
            ctxStack_.pop_back();
    }

    /**
     * The identity a cross-domain hop should carry: the innermost
     * live span's (trace, gid) when one is live, else the innermost
     * pushed context, else empty.
     */
    TraceContext
    currentContext() const
    {
        for (std::size_t i = stack_.size(); i-- > 0;) {
            const Event &e = events_[stack_[i] - 1];
            if (e.trace != 0)
                return TraceContext{e.trace, e.gid};
        }
        return ctxStack_.empty() ? TraceContext{} : ctxStack_.back();
    }

    /** Depth of the pushed-context stack (tests; 0 while disabled). */
    std::size_t contextDepth() const { return ctxStack_.size(); }

    /** @} */

    /** Runtime enable toggle (records nothing while disabled). */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** @} */

    /** @name Inspection and export @{ */

    const std::vector<Event> &events() const { return events_; }

    /** Resolve an interned string id (Event::cat / Event::name). */
    const std::string &string(std::uint32_t id) const;

    /** Drop every recorded event (string table survives). */
    void clear();

    /**
     * Append every event of @p other to this tracer, re-interning
     * strings and rebasing span ids/parent links. Multi-domain runs
     * give each domain its own tracer (single-threaded, like the
     * per-rig sweep invariant) and merge them in domain-id order
     * afterwards — a fixed order, so the merged trace stays a pure
     * function of the run and byte-identical across thread counts.
     * @pre other has no live (unclosed) spans.
     */
    void append(const Tracer &other);

    /**
     * Emit the trace as Chrome trace_event JSON ("X" complete events
     * for spans and phases, "i" instants), loadable by Perfetto and
     * chrome://tracing. Events are stably ordered by start tick, ts
     * and dur are exact tick-derived microsecond strings, and args
     * carry the raw tick values - the output of a same-seed run is
     * byte-identical.
     */
    void writeChromeJson(std::ostream &os) const;

    /**
     * Aggregate phase events into per-(category, name) latency rows,
     * sorted by category then name. Percentiles are exact (computed
     * over every recorded duration).
     */
    std::vector<PhaseStat> phaseBreakdown() const;

    /** @} */

  private:
    std::uint32_t intern(const char *s);

    bool enabled_ = true;
    std::uint32_t stream_ = 0;
    std::uint64_t gidSeq_ = 0;
    std::vector<Event> events_;
    std::vector<SpanId> stack_;
    std::vector<TraceContext> ctxStack_;
    std::vector<std::string> strings_;
    std::map<std::string, std::uint32_t> internIds_;
};

/**
 * The shared fault-injection / tracing surface. Every durability
 * tracepoint call site announces the hit to both sinks through this
 * helper; the trace instant is recorded *before* FaultInjector::hit()
 * so that a thrown PowerCut still leaves the protocol edge visible in
 * the trace. Either pointer may be null.
 */
inline void
tracepointHit(FaultInjector *faults, Tracer *tracer, Tp tp, Tick at)
{
    if (tracer)
        tracer->instant("tp", tpName(tp), at);
    if (faults)
        faults->hit(tp);
}

} // namespace bssd::sim

#endif // BSSD_SIM_TRACE_HH

/**
 * @file
 * Conservative parallel discrete-event engine over sim::Domain.
 *
 * The engine runs registered domains in barrier-synchronized rounds
 * (bounded-lag / windowed conservative PDES, no null messages):
 *
 *  1. deliver every buffered cross-domain message, globally sorted by
 *     (delivery tick, sender id, sender sequence);
 *  2. read each domain's next event time, then bound each domain's
 *     earliest possible SEND time
 *         eot(s) = min(nextEvent(s), globalMin + minInLookahead(s))
 *     — the second term covers feedback: even an idle domain can be
 *     woken by a message, but no causal chain starts before the
 *     globally earliest event and reaching s costs at least its
 *     cheapest inbound lookahead;
 *  3. give each domain a safe window
 *         W(d) = min over channels s→d of eot(s) + lookahead(s,d)
 *     capped at the run horizon;
 *  4. execute all domains' windows concurrently on a persistent worker
 *     pool (events strictly before W(d) fire); outgoing posts are
 *     buffered in per-domain outboxes;
 *  5. barrier, then repeat from 1.
 *
 * Safety: any message s ever sends from here on has send time
 * t >= eot(s) — either s fires a currently queued event (t >=
 * nextEvent(s)) or it was first woken by a chain of messages rooted at
 * some currently queued event (t >= globalMin + minInLookahead(s)) —
 * so its delivery tick is >= eot(s) + lookahead(s,d) >= W(d); no event
 * a domain fired inside its window can be invalidated by a message it
 * has not seen yet. Progress: channels require positive lookahead, so
 * eot(s) >= globalMin for every s and the domain holding the globally
 * earliest event always has W(d) > globalMin and fires it — every
 * round fires at least one event or the run is complete.
 *
 * Determinism: with threads == 1 the engine executes the identical
 * window schedule inline in domain-id order, and message delivery
 * order is a pure function of (tick, sender id, sender sequence) — so
 * parallel runs are bit-identical to serial ones, including trace and
 * metrics output. See DESIGN.md section 12.
 */

#ifndef BSSD_SIM_ENGINE_HH
#define BSSD_SIM_ENGINE_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/domain.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace bssd::sim
{

class MetricRegistry;

/**
 * Runs a set of domains to a horizon, serially or on worker threads,
 * with bit-identical results either way.
 */
class ParallelEngine
{
  public:
    /** @param threads worker count; <= 1 means serial execution. The
     *  first threaded round caps it at the domain count. */
    explicit ParallelEngine(unsigned threads = 1);

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    ~ParallelEngine();

    /**
     * Register @p d with this engine. Ids are assigned in registration
     * order; register domains in a fixed order for reproducible runs.
     * @pre d is not attached to any engine.
     */
    std::uint32_t add(Domain &d);

    /**
     * Declare that @p src may post to @p dst with delivery at least
     * @p lookahead ticks after the send. The lookahead is the channel
     * contract: larger values widen every window (more parallelism),
     * but posts violating them panic. Across the host↔device boundary
     * the PCIe link minimum latency is the natural choice
     * (pcie::PcieConfig::minPostedLatency()).
     * @pre both registered here, src != dst, lookahead > 0.
     */
    void connect(Domain &src, Domain &dst, Tick lookahead);

    /** Channel lookahead src→dst, or maxTick when not connected. */
    Tick lookahead(std::uint32_t src, std::uint32_t dst) const;

    /**
     * Run every domain's events with tick <= @p until, then advance
     * all domain clocks to exactly @p until.
     * @return events fired by this call.
     */
    std::uint64_t run(Tick until);

    /** @name Introspection @{ */
    unsigned threads() const { return threads_; }
    std::size_t domainCount() const { return domains_.size(); }
    /** Horizon reached by the last run() call. */
    Tick now() const { return now_; }
    /** Barrier rounds executed over this engine's lifetime. */
    std::uint64_t rounds() const { return rounds_; }
    /** Cross-domain messages delivered over this engine's lifetime. */
    std::uint64_t messagesDelivered() const { return delivered_; }
    /** Events fired through run() over this engine's lifetime. */
    std::uint64_t eventsFired() const { return fired_; }
    /** @} */

    /** @name Self-telemetry (DESIGN.md section 14)
     *
     * All of it is computed on the main thread from the per-round
     * window schedule, which is identical at every thread count — the
     * numbers measure the SCHEDULE's parallelism (how much work each
     * barrier round makes available per domain and which channel
     * bounds it), not wall time, so they are deterministic and
     * byte-identical across 1/2/8 threads like everything else.
     * @{ */

    /** Events fired by one domain over this engine's lifetime. */
    std::uint64_t domainEventsFired(std::uint32_t d) const;

    /**
     * Barrier stall attributed to one domain: the per-round gap
     * between its window end and the round's widest window, summed in
     * ticks. A domain with large stall is repeatedly ready early and
     * waits at the barrier — the scaling loss the telemetry makes
     * measurable.
     */
    std::uint64_t stallTicks(std::uint32_t d) const;

    /** Rounds in which @p d's window was bounded by the run horizon
     *  rather than by an inbound channel. */
    std::uint64_t horizonBoundRounds(std::uint32_t d) const;

    /** Rounds in which @p d's window was bounded by the channel from
     *  @p src (lookahead-bound attribution). */
    std::uint64_t channelBoundRounds(std::uint32_t d,
                                     std::uint32_t src) const;

    /** Per-round window width (W(d) − globalMin) over all domains. */
    const Histogram &windowWidth() const { return windowWidth_; }

    /**
     * Register the engine's telemetry under @p prefix ("engine"):
     * scalar gauges for rounds/messages/events, the window-width
     * histogram, and per-domain events/stall/bound attribution under
     * `<prefix>.<domain-name>.` (names sanitized to metric-path
     * grammar). The registry must not outlive the engine.
     */
    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const;

    /**
     * Record one span per barrier round ("engine"/"round", covering
     * [globalMin, widest window)) into @p t. Opt-in: rounds are many,
     * so benches enable it only when asked. Pass nullptr to stop.
     * @p t must be a tracer no domain records into (the engine writes
     * between rounds, concurrently with nothing).
     */
    void traceRounds(Tracer *t) { roundTracer_ = t; }

    /** @} */

  private:
    friend class Domain;

    /** An outbox message tagged with its sender for global ordering. */
    struct Routed
    {
        Tick when;
        std::uint32_t sender;
        std::uint64_t seq;
        std::uint32_t target;
        EventQueue::Callback cb;
    };

    /** when + lookahead without wrapping past maxTick. */
    static Tick satAdd(Tick a, Tick b)
    {
        return a > maxTick - b ? maxTick : a + b;
    }

    void deliverOutboxes();
    Tick windowFor(std::size_t d, Tick until) const;
    void executeDomain(std::size_t d);
    void runRound();
    void startWorkers();
    void workerLoop(unsigned self);

    unsigned threads_;
    std::vector<Domain *> domains_;
    /** look_[src][dst]; maxTick = no channel. */
    std::vector<std::vector<Tick>> look_;
    /** Cheapest inbound lookahead per domain; maxTick = no inbound. */
    std::vector<Tick> minInLook_;

    // Per-round scratch, indexed by domain id. Written by the main
    // thread between rounds; windows_ is read and perFired_/errors_
    // written by the executor that owns the domain during a round (the
    // barrier mutex orders those accesses).
    std::vector<Tick> next_;
    std::vector<Tick> windows_;
    std::vector<std::uint64_t> perFired_;
    std::vector<std::exception_ptr> errors_;
    std::vector<Routed> mailbag_;

    Tick now_ = 0;
    std::uint64_t rounds_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t fired_ = 0;

    // Self-telemetry, accumulated on the main thread between rounds
    // (see the Introspection section above for semantics).
    std::vector<std::uint64_t> domFired_;
    std::vector<std::uint64_t> stallTicks_;
    /** boundBy_[d][src] = rounds d's window was set by channel src→d. */
    std::vector<std::vector<std::uint64_t>> boundBy_;
    std::vector<std::uint64_t> boundByHorizon_;
    /** windowFor scratch: bounding source of the last computed window
     *  (domain id, or kNoBound for the horizon cap). */
    mutable std::uint32_t windowBoundBy_ = 0;
    static constexpr std::uint32_t kNoBound = ~std::uint32_t(0);
    Histogram windowWidth_{"window-width-ticks"};
    Tracer *roundTracer_ = nullptr;

    // Worker pool (started lazily on the first threaded round).
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable roundStart_;
    std::condition_variable roundDone_;
    std::uint64_t roundGen_ = 0;
    unsigned busy_ = 0;
    bool stop_ = false;
};

} // namespace bssd::sim

#endif // BSSD_SIM_ENGINE_HH

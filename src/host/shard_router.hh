/**
 * @file
 * Host-side router for multi-device (sharded) runs.
 *
 * The host is its own simulation domain: an open-loop arrival process
 * (Poisson or bursty, sim::ArrivalSpec) generates cycles of key-value
 * operations, partitions each cycle through a pluggable route function
 * (key-hash or range sharding against a cluster::ShardMap), and posts
 * every batch to its shard's domain through the Domain::post mailbox —
 * the same path an NVMe doorbell write takes across PCIe, which is why
 * the request lookahead is the link's minimum posted-write latency.
 * The shard executes the batch against its own store/WAL/device stack
 * (the ShardExec callback, run entirely inside the shard domain),
 * reports every operation's finish tick, and posts the completion
 * back, paying the completion/interrupt delivery cost.
 *
 * Rebalance support: a hold predicate parks operations whose key is
 * mid-move in a host-side queue instead of dispatching them;
 * releaseHeld() re-routes the parked operations (through the
 * possibly-updated route function) once the map has flipped. A cycle
 * hook and per-shard outstanding counters give the cluster the
 * deterministic "start the move at cycle C" and "victim drained"
 * signals it needs.
 *
 * All router state is partitioned by domain: generation state (RNG,
 * arrival clock, dispatch counters) is touched only by host-domain
 * events, per-shard state only by that shard's events — so the router
 * needs no locks and runs bit-identically at any engine thread count.
 */

#ifndef BSSD_HOST_SHARD_ROUTER_HH
#define BSSD_HOST_SHARD_ROUTER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "sim/client.hh"
#include "sim/domain.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::host
{

/** One routed key-value operation. */
struct RouterOp
{
    enum class Kind : std::uint8_t { set, get };

    Kind kind = Kind::get;
    std::uint64_t key = 0;
    /** Value payload size (set only). */
    std::uint32_t valueBytes = 0;

    /** @name Request tracing identity (0 when tracing is off)
     *
     * Stamped at generation time in the host domain: `trace` is the
     * op's sequence number (the id `critical_path --request` takes),
     * `gid` the global id its root span will be recorded under, `gen`
     * the generation tick. The shard executor pushes {trace, gid}
     * around the op's store execution so every device span it causes
     * stitches under the root.
     * @{ */
    std::uint64_t trace = 0;
    std::uint64_t gid = 0;
    sim::Tick gen = 0;
    /** @} */
};

/** Router workload shape and channel contract. */
struct RouterConfig
{
    /** Operations generated per arrival cycle (split across shards). */
    std::uint32_t opsPerCycle = 64;
    /** Arrival cycles to dispatch before the router goes idle. */
    std::uint64_t cycles = 48;
    /** Open-loop arrival process of cycle starts. */
    sim::ArrivalSpec arrival;
    /** Fraction of SET commands (the rest are GETs). */
    double setFraction = 0.7;
    /** Keys are drawn uniformly from [0, keySpace). */
    std::uint64_t keySpace = 512;
    /** Mean value size; actual sizes draw from [half, full]. */
    std::uint32_t valueBytes = 96;
    /** Seed for the router's private RNG streams. */
    std::uint64_t seed = 1;
    /**
     * host→shard delivery latency; must equal the engine channel
     * lookahead (the PCIe minimum posted-write latency — a doorbell).
     */
    sim::Tick requestLatency = sim::nsOf(690);
    /**
     * shard→host completion delivery latency (CQE posting + interrupt,
     * cf. ssd::NvmeQueueConfig::completionCost); must equal the
     * shard→host channel lookahead.
     */
    sim::Tick completionLatency = sim::usOf(1);
    /**
     * NVMe-style I/O queue pairs the host keeps per shard (>= 1).
     * Batches are placed round-robin on the pairs, mirroring the
     * device-level NvmeMultiQueue arbitration.
     */
    std::uint16_t queuePairs = 1;
    /**
     * In-flight batches each queue pair admits; 0 disables gating (a
     * batch is always posted the tick it is formed — the legacy
     * unbounded behaviour). With gating on, a batch formed while every
     * pair of its shard is full parks in a host-side queue and is
     * posted by the completion that frees a slot; the wait shows up as
     * a ("router","queue") span and in the op's host-observed latency.
     */
    std::uint16_t queueDepth = 0;
};

/**
 * Routes open-loop batches from a host domain to shard domains and
 * accounts the completions.
 */
class ShardRouter
{
  public:
    /**
     * Executes one batch inside the shard's domain.
     * @param shard  shard index
     * @param start  batch start tick (the shard domain's now)
     * @param ops    the routed operations, cycle order preserved
     * @param opDone out: per-op finish tick, one entry per op, each
     *               >= start (the router turns these into the
     *               host-observed per-op latency histogram)
     * @return batch finish tick (>= every opDone entry)
     */
    using ShardExec = std::function<sim::Tick(
        unsigned shard, sim::Tick start, const std::vector<RouterOp> &ops,
        std::vector<sim::Tick> &opDone)>;

    /** Maps an operation to its owning shard (host domain only). */
    using RouteFn = std::function<unsigned(const RouterOp &)>;

    /** True to park the operation instead of dispatching it. */
    using HoldFn = std::function<bool(const RouterOp &)>;

    /** Runs in the host domain after each generated cycle. */
    using CycleHook = std::function<void(std::uint64_t cyclesDone)>;

    /**
     * @pre every domain is registered with one engine, with channels
     *      host→shard (lookahead <= cfg.requestLatency) and
     *      shard→host (lookahead <= cfg.completionLatency).
     * @param route shard-selection function; nullptr = key modulo
     *              shard count. It is fixed for the run, so a
     *              rebalancing caller passes one that reads its live
     *              shard map.
     */
    ShardRouter(const RouterConfig &cfg, sim::Domain &hostDomain,
                std::vector<sim::Domain *> shardDomains, ShardExec exec,
                RouteFn route = nullptr);
    ~ShardRouter();

    /** Schedule the first arrival cycle on the host domain's queue. */
    void start();

    /** @name Rebalance hooks (host domain only) @{ */

    /** Park matching ops instead of dispatching (nullptr = none). */
    void setHold(HoldFn hold) { hold_ = std::move(hold); }

    /** Re-route every parked op through the route function and
     *  dispatch immediately. Clears the parked queue. */
    void releaseHeld();

    /** Parked operations currently queued. */
    std::size_t heldOps() const { return held_.size(); }

    /** Install a hook running after each generated cycle. */
    void setCycleHook(CycleHook hook) { cycleHook_ = std::move(hook); }

    /**
     * Install the host-side tracer (stream 0 of the merged trace).
     * With a tracer installed every generated op is stamped with a
     * trace id + root-span gid, and the router records the request's
     * root span plus doorbell/completion/hold child spans when the
     * completion returns.
     */
    void setTracer(sim::Tracer *t) { tracer_ = t; }

    /** Next unused trace id (the cluster's rebalance borrows one so
     *  its trace never collides with an op's). Host domain only. */
    std::uint64_t mintTraceId() { return ++traceSeq_; }

    /** Batches bound for @p shard whose completion has not returned —
     *  posted batches plus batches parked behind full queue pairs
     *  (both must drain before a rebalance victim is quiescent). */
    std::uint64_t
    outstanding(unsigned shard) const
    {
        return outstanding_[shard] + pending_[shard].size();
    }

    /** Batches parked behind @p shard's full queue pairs right now. */
    std::uint64_t
    pendingBatches(unsigned shard) const
    {
        return pending_[shard].size();
    }

    /** Total batches that ever waited for a queue-pair slot. */
    std::uint64_t batchesQueued() const { return batchesQueued_; }

    /** @} */

    /** @name Progress and statistics @{ */
    bool done() const
    {
        for (const auto &p : pending_) {
            if (!p.empty())
                return false;
        }
        return cyclesDone_ == cfg_.cycles && held_.empty() &&
               batchesCompleted_ == batchesDispatched_;
    }
    std::uint64_t opsRouted() const { return opsRouted_; }
    std::uint64_t opsCompleted() const { return opsCompleted_; }
    std::uint64_t batchesDispatched() const { return batchesDispatched_; }
    std::uint64_t batchesCompleted() const { return batchesCompleted_; }
    std::uint64_t cyclesDone() const { return cyclesDone_; }
    /** Host-observed dispatch→completion latency per batch. */
    const sim::Histogram &batchLatency() const { return latency_; }
    /** Host-observed per-operation latency. */
    const sim::Histogram &opLatency() const { return opLatency_; }
    /** Distinct keys ("simulated users") the run touched. */
    std::uint64_t usersTouched() const { return usersTouched_; }

    /**
     * p99 over the last kLatencyWindow completed op latencies of one
     * shard (nearest-rank; 0 while empty) — the sliding-window SLO
     * gauge the cluster samples into its time series.
     */
    std::uint64_t windowP99(unsigned shard) const;

    /** @} */

    /** Sliding-window size of windowP99 (per shard, ring buffer). */
    static constexpr std::size_t kLatencyWindow = 128;

    /** windowP99() of a window holding @p samples, in any order (at
     *  most kLatencyWindow of them); allocates nothing. */
    static std::uint64_t windowP99Of(std::span<const std::uint64_t> samples);

  private:
    /** A batch waiting for one of its shard's queue pairs to drain. */
    struct PendingBatch
    {
        /** Tick the batch was formed (latency accrues from here). */
        sim::Tick offered = 0;
        std::vector<RouterOp> ops;
    };

    /** pickQueue() result when every pair of the shard is full. */
    static constexpr std::size_t kNoQueue = ~std::size_t{0};

    void cycle();
    unsigned routeOf(const RouterOp &op) const;
    void enqueue(const RouterOp &op);
    void flushBuckets();
    /** Place a fresh batch: post it on a free queue pair or park it. */
    void dispatch(unsigned shard, std::vector<RouterOp> ops);
    /** Post a batch on queue pair @p qp of @p shard. @p offered is the
     *  tick the batch was formed; the gap to now is queueing delay. */
    void dispatchOn(unsigned shard, std::size_t qp, sim::Tick offered,
                    std::vector<RouterOp> ops);
    /** Round-robin pick of a queue pair with a free slot (kNoQueue if
     *  all full). Advances the shard's arbitration cursor on a hit. */
    std::size_t pickQueue(unsigned shard);
    /** Push one completed-op latency into the shard's p99 ring. */
    void recordLatency(unsigned shard, std::uint64_t lat);

    RouterConfig cfg_;
    sim::Domain &host_;
    std::vector<sim::Domain *> shards_;
    ShardExec exec_;
    RouteFn route_;
    HoldFn hold_;
    CycleHook cycleHook_;

    sim::OpenLoopArrivals arrivals_;
    sim::Rng rng_;
    std::uint64_t cyclesDone_ = 0;
    std::uint64_t opsRouted_ = 0;
    std::uint64_t opsCompleted_ = 0;
    std::uint64_t batchesDispatched_ = 0;
    std::uint64_t batchesCompleted_ = 0;
    sim::Histogram latency_{"batch-latency-ns"};
    sim::Histogram opLatency_{"op-latency-ns"};
    std::vector<bool> touched_;
    std::uint64_t usersTouched_ = 0;
    /** Reused per-cycle partition scratch, one bucket per shard. */
    std::vector<std::vector<RouterOp>> buckets_;
    /** Operations parked by the hold predicate (rebalance in flight). */
    std::vector<RouterOp> held_;
    /** In-flight (posted, uncompleted) batches per shard. */
    std::vector<std::uint64_t> outstanding_;
    /** Batches parked behind full queue pairs, per shard, FIFO. */
    std::vector<std::deque<PendingBatch>> pending_;
    /** In-flight batches per shard per queue pair (gating state). */
    std::vector<std::vector<std::uint32_t>> qpInflight_;
    /** Per-shard round-robin arbitration cursor over the pairs. */
    std::vector<std::size_t> qpCursor_;
    std::uint64_t batchesQueued_ = 0;

    /** Host-side tracer (null = untraced run) and trace-id mint. */
    sim::Tracer *tracer_ = nullptr;
    std::uint64_t traceSeq_ = 0;
    /** Per-shard ring of recent op latencies (windowP99). */
    std::vector<std::vector<std::uint64_t>> latWindow_;
    std::vector<std::size_t> latWindowPos_;
};

} // namespace bssd::host

#endif // BSSD_HOST_SHARD_ROUTER_HH

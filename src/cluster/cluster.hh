/**
 * @file
 * First-class sharded cluster: N store × WAL × device shard rigs
 * behind one host router, on the conservative parallel engine.
 *
 * This is ROADMAP item 1 grown into a subsystem. A Cluster owns
 *
 *  - one host domain running a host::ShardRouter fed by an open-loop
 *    arrival process (Poisson or bursty, thousands of simulated
 *    users);
 *  - N shard domains, each miniredis or minipg over a rig from the
 *    rig factory (src/wal/rig.hh): a BA-WAL on a 2B-SSD, a
 *    page-aligned block WAL, or a BA-WAL synchronously replicated to
 *    a follower 2B-SSD (wal::ReplicatedWal), on the GC-campaign
 *    preset that keeps incremental background GC continuously active
 *    or on the crash-matrix preset;
 *  - a cluster::ShardMap routing keys by hash or by contiguous range,
 *    consulted by the router's route function on every operation.
 *
 * Online rebalancing (runRebalance sequence, all orchestrated from
 * the host domain so it is bit-identical at any engine thread count):
 *
 *  1. at a configured arrival cycle the host computes a
 *     ShardMap::planMove for the configured interval and installs a
 *     hold predicate — operations whose routing point is mid-move
 *     park in the router instead of dispatching;
 *  2. the host polls the victims' outstanding-batch counters until
 *     every in-flight batch that could touch the interval has
 *     completed (the drain);
 *  3. for each plan step the host reads the moving keys out of the
 *     victim through the store's sorted iterator (a posted message
 *     into the victim's domain), writes them durably to the target,
 *     then durably deletes them from the victim — every hop rides
 *     the same request/completion channels as normal traffic and
 *     pays the same lookaheads;
 *  4. the map flips atomically (ShardMap::apply) in one host-domain
 *     event — the tick barrier — and the parked operations re-route
 *     through the new map and dispatch.
 *
 * A power cut on a replicated shard's primary is recoverable at any
 * point: crashAndRecoverShard promotes the follower and replays the
 * shard's store from the follower's durable contents
 * (DESIGN.md section 13).
 */

#ifndef BSSD_CLUSTER_CLUSTER_HH
#define BSSD_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_map.hh"
#include "host/shard_router.hh"
#include "sim/client.hh"
#include "sim/domain.hh"
#include "sim/engine.hh"
#include "sim/metrics.hh"
#include "sim/report.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::cluster
{

/** Cluster topology, rig flavour, workload shape and rebalance plan. */
struct ClusterConfig
{
    /** Shard (device/rig) domains; the host router is one more. */
    unsigned shards = 4;

    /** Store engine every shard runs. */
    enum class Engine : std::uint8_t
    {
        redis, ///< miniredis, appendfsync=always
        pg     ///< minipg, XLOG + group commit
    } engine = Engine::redis;

    /** Shard WAL flavour. BA-WALs are single-buffered under redis,
     *  respecting its single-threaded design (Section IV-B), and
     *  double-buffered under minipg, which group-commits. */
    enum class Wal : std::uint8_t
    {
        ba,    ///< BA-WAL on a 2B-SSD
        block, ///< page-aligned block WAL with fsync
        baRepl ///< BA-WAL replicated to a follower 2B-SSD
    } wal = Wal::ba;

    /**
     * GC preset (rigs::gcSpec): shrink each shard's array (6
     * blocks/die) and run incremental background GC with partial
     * relocation steps, so the op stream wraps the WAL region and
     * keeps GC continuously active. Off: rigs::tinySpec.
     */
    bool gc = true;

    /** How the router maps keys to shards. */
    Sharding sharding = Sharding::hash;

    /** Engine worker threads (1 = serial reference). */
    unsigned engineThreads = 1;

    /** @name Router workload (see host::RouterConfig) @{ */
    std::uint32_t opsPerCycle = 64;
    std::uint64_t cycles = 48;
    /** Open-loop arrival process of cycle starts. */
    sim::ArrivalSpec arrival;
    double setFraction = 0.7;
    /** Keys = simulated users; drawn uniformly from [0, keySpace). */
    std::uint64_t keySpace = 512;
    std::uint32_t valueBytes = 96;
    std::uint64_t seed = 1;
    /** Host I/O queue pairs per shard (host::RouterConfig), >= 1. */
    std::uint16_t queuePairs = 1;
    /** Batches each pair admits; 0 = unbounded (no queue gating). */
    std::uint16_t queueDepth = 0;
    /** @} */

    /** @name Online rebalance @{ */

    /** Arrival cycle at which the range move starts (0 = never; at
     *  most cycles). */
    std::uint64_t rebalanceAtCycle = 0;
    /**
     * Moved interval of the ROUTING SPACE in 1/256ths: the plan moves
     * points in [space/256 * moveBegin256, space/256 * moveEnd256).
     * Expressed as 256ths (not raw points) so one config works for
     * both hash (space = 2^63) and range (space = keySpace) maps,
     * exactly and without floating point.
     */
    std::uint32_t moveBegin256 = 0;
    std::uint32_t moveEnd256 = 64;
    /** Shard that receives the moved interval. */
    unsigned moveTo = 0;
    /** @} */
};

/** shortName for baselines/report rows ("redis", "pg"). */
const char *engineName(ClusterConfig::Engine e);
/** "ba", "block" or "ba_repl" (the crash-campaign cell names). */
const char *walName(ClusterConfig::Wal w);

/**
 * A sharded serving fleet on the parallel engine. Construct, run(),
 * then read results; the object stays alive for post-run
 * introspection (consistency check, crash/recover, digests).
 */
class Cluster
{
  public:
    /**
     * Build the fleet. When @p trace is non-null every shard records
     * into a private tracer and run() appends them to @p trace in
     * shard (domain-id) order — byte-identical across thread counts.
     */
    explicit Cluster(const ClusterConfig &cfg,
                     sim::Tracer *trace = nullptr);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /**
     * Drive the engine in fixed chunks until the router drains and
     * any scheduled rebalance has flipped. Panics if the run fails to
     * drain.
     */
    void run();

    /** @name Post-run results @{ */

    /** The router's counters and latency views. */
    const host::ShardRouter &router() const { return *router_; }

    /** The routing map (post-rebalance version if one ran). */
    const ShardMap &map() const { return map_; }

    /** Engine introspection (rounds, messages, events). */
    const sim::ParallelEngine &engine() const { return engine_; }

    /** Simulated time the run needed to drain (ticks). */
    sim::Tick horizon() const { return horizon_; }

    /** Range moves completed / keys physically copied by them. */
    std::uint64_t rebalancesDone() const { return rebalances_; }
    std::uint64_t movedKeys() const { return movedKeys_; }

    /**
     * Digest of final cluster state: every shard's store contents
     * (sorted-key FNV) plus its command/IO counters, folded in shard
     * order, plus the map version. Equal digests mean equal data.
     */
    std::uint64_t stateDigest() const;

    /**
     * Merged metrics snapshot: the engine's self-telemetry
     * ("engine.*"), every shard's device/WAL metrics ("shardN.*") and
     * the SLO gauges ("slo.*"), folded across the per-shard
     * registries with MetricsSnapshot::merge — whose path UNION is
     * what keeps gauges existing in only one shard's registry (e.g.
     * the rebalance target's inbound-keys) in the merged result.
     */
    sim::MetricsSnapshot metricsSnapshot() const;

    /** metricsSnapshot() as JSON (deterministic row order). */
    std::string metricsJson() const;

    /**
     * Per-shard SLO time series sampled over the run on the simulated
     * clock (DESIGN.md section 14): queue depth, WAL store bytes, GC
     * debt, sliding-window op p99 per shard, plus cluster-wide
     * held-ops / rebalance-hold-time columns. Deterministic: merged
     * host-first then shard-id order, pumped at fixed horizons.
     */
    const sim::SeriesTable &sloSeries() const { return slo_; }

    /** sloSeries() as JSON (GaugeSampler shape). */
    std::string sloJson() const;

    /** One shard's store digest (tests compare across crashes). */
    std::uint64_t shardContentHash(unsigned shard) const;

    /** Live keys (redis) or nodes (pg) on one shard. */
    std::uint64_t shardItems(unsigned shard) const;

    /** AOF rewrites (redis) or checkpoints (pg) one shard's store has
     *  taken, each of which restarted its WAL. */
    std::uint64_t shardCheckpoints(unsigned shard) const;

    /**
     * Structural consistency check over the whole fleet; panics on
     * violation. Verifies that every stored key lives on exactly the
     * shard the current map assigns it to (so a rebalance copied
     * everything and purged the victim) and that every value matches
     * the workload's deterministic payload pattern byte-for-byte (so
     * the copy path moved bytes, not just key names).
     */
    void verifyConsistency() const;

    /**
     * Power-cut the primary of a replicated shard and recover from
     * the promoted follower (Wal::baRepl only; panics otherwise).
     * @return true when the recovered store digest equals the
     *         pre-crash digest (synchronous replication: the drained
     *         fleet has no unacknowledged writes to lose).
     */
    bool crashAndRecoverShard(unsigned shard);

    /** @} */

  private:
    /** One shard: a store × WAL × device rig living in one domain. */
    struct Shard;

    void buildShards(sim::Tracer *trace);
    host::ShardRouter::ShardExec makeExec();
    void buildSlo();
    void sampleSlo(sim::Tick now);
    /** The rebalance's cross-domain identity (empty when untraced). */
    sim::TraceContext rebalCtx() const
    {
        return sim::TraceContext{rebalTrace_, rebalGid_};
    }

    /** @name Rebalance state machine (host domain only) @{ */
    void onCycle(std::uint64_t cyclesDone);
    void startRebalance();
    void pollDrain();
    void runStep(std::size_t step);
    void finishRebalance();
    /** @} */

    ClusterConfig cfg_;
    sim::ParallelEngine engine_;
    sim::Domain host_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<sim::Domain *> shardDoms_;
    ShardMap map_;
    std::unique_ptr<host::ShardRouter> router_;
    sim::Tracer *trace_ = nullptr;
    /** Host-domain tracer (stream 0): router spans, rebalance spans,
     *  contexts pushed by posts delivered into the host domain. */
    sim::Tracer hostTracer_;

    /** @name SLO sampling (DESIGN.md section 14) @{ */
    std::unique_ptr<sim::MetricRegistry> hostSloReg_;
    std::unique_ptr<sim::GaugeSampler> hostSloSampler_;
    std::vector<std::unique_ptr<sim::MetricRegistry>> sloRegs_;
    std::vector<std::unique_ptr<sim::GaugeSampler>> sloSamplers_;
    sim::SeriesTable slo_;
    /** @} */

    sim::Tick horizon_ = 0;
    bool ran_ = false;

    /** Rebalance progress. */
    enum class Rebal : std::uint8_t
    {
        idle,     ///< not scheduled or not reached yet
        draining, ///< hold installed, waiting out in-flight batches
        copying,  ///< plan steps executing
        done      ///< map flipped, holds released
    } rebal_ = Rebal::idle;
    std::vector<MoveRange> plan_;
    std::uint64_t rebalances_ = 0;
    std::uint64_t movedKeys_ = 0;
    /** Rebalance trace identity + phase boundaries (traced runs). */
    std::uint64_t rebalTrace_ = 0;
    std::uint64_t rebalGid_ = 0;
    sim::Tick rebalStart_ = 0;
    sim::Tick drainEnd_ = 0;
};

/** Everything a cluster run produces, determinism-comparable. */
struct ClusterResult
{
    std::uint64_t opsRouted = 0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t batchesDispatched = 0;
    std::uint64_t batchesCompleted = 0;
    /** Engine events fired, barrier rounds, mailbox messages. */
    std::uint64_t eventsFired = 0;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    /** Simulated time the run needed to drain (ticks). */
    sim::Tick horizon = 0;
    /** Host-observed batch latency percentiles (ticks). */
    std::uint64_t batchP50 = 0;
    std::uint64_t batchP99 = 0;
    /** Host-observed per-op latency percentiles (ticks). */
    std::uint64_t opP50 = 0;
    std::uint64_t opP99 = 0;
    std::uint64_t opP999 = 0;
    /** Distinct keys ("simulated users") the run touched. */
    std::uint64_t usersTouched = 0;
    /** Range moves completed / keys they physically copied. */
    std::uint64_t rebalances = 0;
    std::uint64_t movedKeys = 0;
    /** Cluster::stateDigest() of the final state. */
    std::uint64_t stateDigest = 0;
    /** Cluster::metricsJson(). */
    std::string metricsJson;
    /** Cluster::sloJson(). */
    std::string sloSeriesJson;
};

/**
 * Build the cluster, run it until the router drains (and any
 * scheduled rebalance flips), verify fleet-wide consistency, and tear
 * it down: the one entry point bench_cluster, perfbench and the
 * determinism tests share. @p trace as for Cluster's constructor.
 */
ClusterResult runCluster(const ClusterConfig &cfg,
                         sim::Tracer *trace = nullptr);

} // namespace bssd::cluster

#endif // BSSD_CLUSTER_CLUSTER_HH

/**
 * @file
 * Traced single-shard replay: per-layer host time inside a fleet run.
 *
 * A cluster::Cluster keeps its shards private, so the benchmark cannot
 * put timers between the store and its WAL inside run(). Instead it
 * rebuilds one shard's rig from the same public constructors (TwoBSsd
 * or SsdDevice, BaWal or BlockWal, MiniRedis or MiniPg) with the
 * cluster's shard preset, regenerates the router's op stream from the
 * same seed and draw order, and executes that shard's share of it the
 * way the shard executor does: one batch per arrival cycle, ops in
 * generation order, each batch starting when its doorbell lands.
 *
 * The store sits on a TimedLog, a wal::LogDevice decorator that
 * forwards to the real WAL and, in a traced replay, times every
 * append/commit/truncate. Wall time spent in the store call minus the
 * WAL time inside it is the store's self time.
 *
 * What the replay does not model: rebalance copies and purges (the
 * router's hold/re-route), so on a workload with a move its shard sees
 * a slightly different op stream than the fleet's. The fidelity fields
 * compare it with the fleet run so such drift is reported, not hidden.
 */

#ifndef BSSD_PERFBENCH_REPLAY_HH
#define BSSD_PERFBENCH_REPLAY_HH

#include <cstdint>

#include "cluster/cluster.hh"
#include "sim/metrics.hh"

namespace bssd::perfbench
{

/** What one replay of one shard measured. */
struct ReplayResult
{
    /** Ops of the shard's share executed (one store call each). */
    std::uint64_t ops = 0;
    /** Wall seconds of the whole op loop (rig construction excluded). */
    double loopS = 0.0;

    /** @name Traced replays only (0 otherwise) @{ */
    /** Store call time minus the WAL time inside those calls. */
    double storeSelfS = 0.0;
    /** WAL time: append/commit/truncate and everything below them. */
    double walInclS = 0.0;
    /** Self time of store calls during which the WAL was truncated
     *  (the AOF rewrite / checkpoint snapshot copy). */
    double snapshotS = 0.0;
    /** @} */

    /** append + commit + truncate calls seen by the decorator. */
    std::uint64_t walCalls = 0;
    std::uint64_t walCommits = 0;
    /** WAL truncations: one per store snapshot. */
    std::uint64_t snapshots = 0;
    /** Record bytes appended over the whole run (all log generations). */
    std::uint64_t bytesAppended = 0;
    /** Bytes the WAL pushed to its medium over all generations. */
    std::uint64_t bytesToStore = 0;
    /** Final store digest (equals the fleet shard's when the replay
     *  saw exactly the fleet shard's op stream). */
    std::uint64_t contentHash = 0;
    /** The rig's device and WAL metrics under the fleet's paths
     *  ("shardN.ba.*", "shardN.ssd.*", "shardN.wal.*"). */
    sim::MetricsSnapshot metrics;
};

/**
 * Replay shard @p shard's share of the workload @p cfg describes.
 * @param traced time every store and WAL call (costs two clock reads
 *               per call; the untraced replay measures that overhead).
 * @throws sim::SimFatal for WAL flavours the replay does not build.
 */
ReplayResult replayShard(const cluster::ClusterConfig &cfg, unsigned shard,
                         bool traced);

} // namespace bssd::perfbench

#endif // BSSD_PERFBENCH_REPLAY_HH

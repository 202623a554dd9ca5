/**
 * @file
 * The cluster subsystem end to end: sharded serving over hash and
 * range maps, online rebalancing (drain → copy → purge → flip), and
 * primary power cuts on replicated shards recovering from the
 * promoted follower.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "cluster/cluster.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

using namespace bssd;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Sharding;

namespace
{

/** Small-but-real fleet: GC active, WAL wrapping, 4 shards. */
ClusterConfig
smallFleet()
{
    ClusterConfig cfg;
    cfg.shards = 4;
    cfg.cycles = 12;
    cfg.opsPerCycle = 32;
    cfg.keySpace = 96;
    cfg.valueBytes = 64;
    return cfg;
}

/** smallFleet with a mid-run range move scheduled. */
ClusterConfig
rebalancingFleet(Sharding kind)
{
    ClusterConfig cfg = smallFleet();
    cfg.sharding = kind;
    cfg.cycles = 16;
    cfg.rebalanceAtCycle = 6;
    // The first quarter of the routing space starts on shard 0 (the
    // constructor splits uniformly); moving it to the last shard
    // guarantees a non-empty plan.
    cfg.moveBegin256 = 0;
    cfg.moveEnd256 = 64;
    cfg.moveTo = cfg.shards - 1;
    return cfg;
}

/** 64-bit FNV-1a over the bytes of @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

TEST(Cluster, ServesAndStaysConsistentUnderHashSharding)
{
    Cluster c(smallFleet());
    c.run();

    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    EXPECT_EQ(c.router().opsRouted(), 12u * 32u);
    EXPECT_GT(c.router().usersTouched(), 0u);
    EXPECT_GT(c.router().opLatency().count(), 0u);
    EXPECT_NE(c.stateDigest(), 0u);
    c.verifyConsistency();
}

TEST(Cluster, ServesAndStaysConsistentUnderRangeSharding)
{
    ClusterConfig cfg = smallFleet();
    cfg.sharding = Sharding::range;
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    c.verifyConsistency();

    // Contiguous ranges: key 0 and key keySpace-1 land on the first
    // and last shard respectively.
    EXPECT_EQ(c.map().shardOf(0), 0u);
    EXPECT_EQ(c.map().shardOf(cfg.keySpace - 1), cfg.shards - 1);
}

TEST(Cluster, RebalanceMovesTheIntervalAndPurgesTheVictim)
{
    for (Sharding kind : {Sharding::hash, Sharding::range}) {
        SCOPED_TRACE(shardingName(kind));
        ClusterConfig cfg = rebalancingFleet(kind);
        Cluster c(cfg);
        c.run();

        EXPECT_EQ(c.rebalancesDone(), 1u);
        EXPECT_GT(c.movedKeys(), 0u);
        // The flip bumped the map version past the freshly built map.
        EXPECT_GT(c.map().version(),
                  cluster::ShardMap(kind, cfg.shards, cfg.keySpace)
                      .version());
        // Every op (including the parked ones) completed, nothing was
        // dropped mid-move.
        EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
        EXPECT_EQ(c.router().opsRouted(),
                  cfg.cycles * cfg.opsPerCycle);
        EXPECT_EQ(c.router().heldOps(), 0u);
        // The moved interval now routes to the target...
        EXPECT_EQ(c.map().shardOfPoint(0), cfg.shards - 1);
        // ...and ownership + payload bytes check out on every shard
        // (this is what catches a lost or unpurged key).
        c.verifyConsistency();
    }
}

TEST(Cluster, RebalanceToTheCurrentOwnerIsANoOp)
{
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    cfg.moveTo = 0; // the constructor already gave shard 0 [0, 1/4)
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.rebalancesDone(), 1u);
    EXPECT_EQ(c.movedKeys(), 0u);
    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    c.verifyConsistency();
}

TEST(Cluster, PgEngineServesAndRebalances)
{
    ClusterConfig cfg = rebalancingFleet(Sharding::range);
    cfg.engine = ClusterConfig::Engine::pg;
    cfg.wal = ClusterConfig::Wal::block;
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.rebalancesDone(), 1u);
    EXPECT_GT(c.movedKeys(), 0u);
    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    c.verifyConsistency();
}

TEST(Cluster, BurstyArrivalsDrainCompletely)
{
    ClusterConfig cfg = smallFleet();
    cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
    cfg.arrival.burstSize = 4;
    cfg.arrival.burstGap = sim::usOf(5);
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    EXPECT_EQ(c.router().opsRouted(), 12u * 32u);
    c.verifyConsistency();
}

TEST(Cluster, QueuePairGatingParksAndDrainsEveryBatch)
{
    // One in-flight batch per pair and bursty arrivals: cycles land
    // while the previous batch is still executing, so batches must
    // park behind the full pairs and be re-posted by completions.
    ClusterConfig cfg = smallFleet();
    cfg.queuePairs = 2;
    cfg.queueDepth = 1;
    cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
    cfg.arrival.burstSize = 6;
    cfg.arrival.burstGap = sim::usOf(5);
    Cluster c(cfg);
    c.run();

    EXPECT_GT(c.router().batchesQueued(), 0u);
    for (unsigned s = 0; s < cfg.shards; ++s)
        EXPECT_EQ(c.router().pendingBatches(s), 0u);
    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    EXPECT_EQ(c.router().opsRouted(), 12u * 32u);
    c.verifyConsistency();
}

TEST(Cluster, QueueGatingWaitIsTracedAsQueueSpans)
{
    // The time a batch parks behind full queue pairs must surface as
    // ("router", "queue") child spans on its ops, not vanish.
    ClusterConfig cfg = smallFleet();
    cfg.queuePairs = 1;
    cfg.queueDepth = 1;
    cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
    cfg.arrival.burstSize = 6;
    cfg.arrival.burstGap = sim::usOf(5);
    sim::Tracer trace;
    Cluster c(cfg, &trace);
    c.run();
    ASSERT_GT(c.router().batchesQueued(), 0u);

    std::size_t queueSpans = 0;
    for (const auto &e : trace.events()) {
        if (e.kind != sim::Tracer::Event::Kind::span)
            continue;
        if (trace.string(e.cat) == "router" &&
            trace.string(e.name) == "queue") {
            ++queueSpans;
            EXPECT_GT(e.end, e.start); // parked: a real wait
            EXPECT_NE(e.trace, 0u);    // stitched under its request
        }
    }
    EXPECT_GT(queueSpans, 0u);
}

TEST(Cluster, ReplicatedShardsSurviveAPrimaryPowerCut)
{
    ClusterConfig cfg = smallFleet();
    cfg.wal = ClusterConfig::Wal::baRepl;
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    c.verifyConsistency();
    // Cut every primary in turn: the follower has the full
    // acknowledged history (the fleet is drained, so acknowledged ==
    // everything) and the promoted recovery must reproduce the store
    // bit for bit.
    for (unsigned s = 0; s < cfg.shards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        EXPECT_TRUE(c.crashAndRecoverShard(s));
    }
    c.verifyConsistency();
}

TEST(Cluster, ReplicatedRebalancingFleetStaysRecoverable)
{
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    cfg.wal = ClusterConfig::Wal::baRepl;
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.rebalancesDone(), 1u);
    c.verifyConsistency();
    // The copy/purge traffic is WAL traffic like any other: both the
    // move target and the purged victim recover from their followers.
    EXPECT_TRUE(c.crashAndRecoverShard(cfg.moveTo));
    EXPECT_TRUE(c.crashAndRecoverShard(0));
    c.verifyConsistency();
}

TEST(Cluster, MetricsAndDigestAreStableAcrossThreadCounts)
{
    // The full 1/2/8-thread byte-identity matrix (traces included)
    // lives in test_cluster_determinism; this is the subsystem-level
    // smoke: same seed, different worker counts, same bytes.
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    Cluster serial(cfg);
    serial.run();
    cfg.engineThreads = 4;
    Cluster parallel(cfg);
    parallel.run();

    EXPECT_EQ(serial.stateDigest(), parallel.stateDigest());
    EXPECT_EQ(serial.metricsJson(), parallel.metricsJson());
    EXPECT_EQ(serial.horizon(), parallel.horizon());
    EXPECT_EQ(serial.movedKeys(), parallel.movedKeys());
}

TEST(Cluster, TracedRunStitchesOneTreePerRequest)
{
    // Every completed op must appear in the merged trace as exactly
    // one root span (trace != 0, no local or cross-tracer parent)
    // with a unique trace id, and every cross-tracer link must
    // resolve to a span gid carrying the same trace. This is the
    // invariant trace_dump --validate enforces on artifacts;
    // asserting it here keeps the check independent of the tool.
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    sim::Tracer trace;
    Cluster c(cfg, &trace);
    c.run();

    using Event = sim::Tracer::Event;
    std::set<std::uint64_t> roots;
    std::map<std::uint64_t, std::uint64_t> traceOfGid;
    std::map<std::uint32_t, std::uint64_t> traceOfLocalId;
    for (const Event &e : trace.events()) {
        if (e.kind != Event::Kind::span)
            continue;
        if (e.gid != 0)
            traceOfGid[e.gid] = e.trace;
        traceOfLocalId[e.id] = e.trace;
        if (e.trace != 0 && e.parent == 0 && e.xparent == 0) {
            // Root spans are one per request: duplicates would mean a
            // request picked up two competing span trees.
            EXPECT_TRUE(roots.insert(e.trace).second)
                << "duplicate root for trace " << e.trace;
        }
    }
    // One root per op, plus the rebalance's own request tree.
    EXPECT_EQ(roots.size(),
              static_cast<std::size_t>(cfg.cycles * cfg.opsPerCycle) +
                  1u);
    for (const Event &e : trace.events()) {
        if (e.kind != Event::Kind::span || e.xparent == 0)
            continue;
        auto it = traceOfGid.find(e.xparent);
        ASSERT_NE(it, traceOfGid.end())
            << "dangling xparent " << e.xparent;
        EXPECT_EQ(it->second, e.trace);
    }
    // Local parents never cross request boundaries either.
    for (const Event &e : trace.events()) {
        if (e.kind != Event::Kind::span || e.parent == 0)
            continue;
        auto it = traceOfLocalId.find(e.parent);
        ASSERT_NE(it, traceOfLocalId.end());
        if (e.trace != 0 && it->second != 0)
            EXPECT_EQ(it->second, e.trace);
    }
}

TEST(Cluster, TraceAndSloSeriesAreStableAcrossThreadCounts)
{
    // The observability outputs are part of the determinism contract:
    // the merged Chrome JSON and the per-shard SLO series must be
    // byte-identical no matter how many engine threads ran the fleet.
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    auto runAt = [&cfg](unsigned threads) {
        ClusterConfig tc = cfg;
        tc.engineThreads = threads;
        sim::Tracer trace;
        Cluster c(tc, &trace);
        c.run();
        std::ostringstream os;
        trace.writeChromeJson(os);
        return std::make_pair(os.str(), c.sloJson());
    };
    const auto serial = runAt(0);
    const auto four = runAt(4);
    EXPECT_EQ(serial.first, four.first);
    EXPECT_EQ(serial.second, four.second);
    EXPECT_NE(serial.second.find("inbound_keys"), std::string::npos);
}

TEST(Cluster, SnapshotCarriesEngineAndOneSidedSloMetrics)
{
    // The merged snapshot keeps the engine's self-telemetry and the
    // one-sided inbound_keys gauge (registered only on the rebalance
    // target) without dropping or double-counting either.
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    Cluster c(cfg);
    c.run();

    sim::MetricsSnapshot snap = c.metricsSnapshot();
    ASSERT_NE(snap.find("engine.rounds"), nullptr);
    ASSERT_NE(snap.find("engine.events"), nullptr);
    EXPECT_GT(snap.find("engine.rounds")->value, 0.0);
    for (unsigned s = 0; s < cfg.shards; ++s) {
        const std::string p =
            "slo.shard" + std::to_string(s) + ".inbound_keys";
        if (s == cfg.moveTo) {
            ASSERT_NE(snap.find(p), nullptr);
            EXPECT_DOUBLE_EQ(snap.find(p)->value,
                             static_cast<double>(c.movedKeys()));
        } else {
            EXPECT_EQ(snap.find(p), nullptr) << p;
        }
    }
}

TEST(Cluster, RejectsBadConfigurations)
{
    ClusterConfig none;
    none.shards = 0;
    EXPECT_THROW(Cluster c(none), sim::SimFatal);

    ClusterConfig badTo = rebalancingFleet(Sharding::hash);
    badTo.moveTo = badTo.shards;
    EXPECT_THROW(Cluster c(badTo), sim::SimFatal);

    ClusterConfig badInterval = rebalancingFleet(Sharding::hash);
    badInterval.moveBegin256 = 64;
    badInterval.moveEnd256 = 64;
    EXPECT_THROW(Cluster c(badInterval), sim::SimFatal);

    // A move scheduled past the last arrival cycle would never start;
    // at the last cycle it still runs.
    ClusterConfig lateMove = rebalancingFleet(Sharding::hash);
    lateMove.rebalanceAtCycle = lateMove.cycles + 1;
    EXPECT_THROW(Cluster c(lateMove), sim::SimFatal);
    lateMove.rebalanceAtCycle = lateMove.cycles;
    Cluster last(lateMove);
    last.run();
    EXPECT_EQ(last.rebalancesDone(), 1u);

    ClusterConfig noPairs = smallFleet();
    noPairs.queuePairs = 0;
    EXPECT_THROW(Cluster c(noPairs), sim::SimFatal);
}

TEST(Cluster, ShardPresetsArePinned)
{
    // Every engine x WAL x GC shard preset on smallFleet(), pinned by
    // the state digest and a hash of the merged metrics JSON. A preset
    // drift (device geometry, GC knobs, region/half/buffer sizes,
    // single vs double buffering) moves at least the metrics hash,
    // even where the digest and the SLO series stay put.
    using E = ClusterConfig::Engine;
    using W = ClusterConfig::Wal;
    struct Cell
    {
        E engine;
        W wal;
        bool gc;
        std::uint64_t digest;
        std::uint64_t metricsHash;
    };
    const Cell cells[] = {
        {E::redis, W::ba, true,
         0xda7c1fcd1ced7725ull, 0x2d28d0a411461753ull},
        {E::redis, W::ba, false,
         0xda7c1fcd1ced7725ull, 0x4d8560ec27bc61d3ull},
        {E::redis, W::block, true,
         0xb770fb238002623aull, 0xbaf2f11e7c609f94ull},
        {E::redis, W::block, false,
         0xb770fb238002623aull, 0xaaecc0c9d35b24d0ull},
        {E::redis, W::baRepl, true,
         0xba2eb5bebd6f5665ull, 0x12e422983168d6bull},
        {E::redis, W::baRepl, false,
         0xba2eb5bebd6f5665ull, 0x62644fa40eb66d55ull},
        {E::pg, W::ba, true,
         0x77ca82b4ffd2a9b7ull, 0x40072fdc14848232ull},
        {E::pg, W::ba, false,
         0x77ca82b4ffd2a9b7ull, 0x5413cc5f9c54737aull},
        {E::pg, W::block, true,
         0xde772cb470e4cb04ull, 0xac230f3fa2aa1418ull},
        {E::pg, W::block, false,
         0xde772cb470e4cb04ull, 0x3318f4b2fdcd7766ull},
        {E::pg, W::baRepl, true,
         0xc43225014f04c4f7ull, 0x9220a914f0b789a3ull},
        {E::pg, W::baRepl, false,
         0xc43225014f04c4f7ull, 0xfd4ce4598f3745f9ull},
    };
    for (const Cell &cell : cells) {
        ClusterConfig cfg = smallFleet();
        cfg.engine = cell.engine;
        cfg.wal = cell.wal;
        cfg.gc = cell.gc;
        SCOPED_TRACE(std::string(cluster::engineName(cell.engine)) +
                     " x " + cluster::walName(cell.wal) +
                     (cell.gc ? " gc" : " no-gc"));
        Cluster c(cfg);
        c.run();
        const std::string json = c.metricsJson();
        EXPECT_EQ(c.stateDigest(), cell.digest);
        EXPECT_EQ(fnv1a(json), cell.metricsHash) << json;
    }
}

TEST(Cluster, PgGcFleetIsPinned)
{
    // perfbench's pg-gc fleet (8x minipg on the block WAL, GC preset),
    // cut to 64 arrival cycles: long enough that every shard's NAND
    // erases blocks, background GC steps run and the store checkpoints,
    // so the pins cover the device and store paths that smallFleet()'s
    // pg x block x gc cell (no erase, no GC step) never reaches.
    ClusterConfig cfg;
    cfg.shards = 8;
    cfg.engine = ClusterConfig::Engine::pg;
    cfg.wal = ClusterConfig::Wal::block;
    cfg.gc = true;
    cfg.opsPerCycle = 512;
    cfg.cycles = 64;
    cfg.keySpace = 16'384;
    cfg.valueBytes = 64;
    cfg.arrival.meanGap = sim::msOf(10);
    cfg.seed = 1;
    Cluster c(cfg);
    c.run();
    EXPECT_EQ(c.router().opsCompleted(), 64u * 512u);
    EXPECT_EQ(c.stateDigest(), 0x02e24b974ecceed9ull);
    EXPECT_EQ(fnv1a(c.metricsJson()), 0xf20bef75e5c0ad5bull);

    // The block WAL's wal_bytes gauge counts every byte it ever wrote,
    // so a checkpoint shows in the store's own count instead.
    const sim::MetricsSnapshot snap = c.metricsSnapshot();
    double erases = 0;
    double steps = 0;
    for (unsigned s = 0; s < cfg.shards; ++s) {
        const std::string p = "shard" + std::to_string(s) + ".ssd.";
        SCOPED_TRACE(p);
        const sim::MetricValue *e = snap.find(p + "nand.blocks_erased");
        const sim::MetricValue *g = snap.find(p + "ftl.gc.steps");
        ASSERT_NE(e, nullptr);
        ASSERT_NE(g, nullptr);
        EXPECT_GT(e->value, 0.0);
        EXPECT_GT(g->value, 0.0);
        EXPECT_GT(c.shardCheckpoints(s), 0u);
        erases += e->value;
        steps += g->value;
    }
    EXPECT_EQ(erases, 2926.0);
    EXPECT_EQ(steps, 2926.0);
}

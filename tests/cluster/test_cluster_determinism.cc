/**
 * @file
 * The parallel engine's headline contract: a same-seed cluster run is
 * byte-identical at every thread count — traces, metrics snapshots,
 * and final store contents all match the serial reference exactly.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/cluster.hh"
#include "sim/trace.hh"

using namespace bssd;
using cluster::ClusterConfig;
using cluster::ClusterResult;

namespace
{

struct ClusterRun
{
    ClusterResult res;
    std::string chromeJson;
};

ClusterRun
runAt(ClusterConfig cfg, unsigned threads)
{
    cfg.engineThreads = threads;
    ClusterRun r;
    sim::Tracer tracer;
    r.res = cluster::runCluster(cfg, &tracer);
    std::ostringstream os;
    tracer.writeChromeJson(os);
    r.chromeJson = os.str();
    return r;
}

/** Full byte-level comparison of two runs. */
void
expectIdentical(const ClusterRun &a, const ClusterRun &b, const char *label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.res.stateDigest, b.res.stateDigest);
    EXPECT_EQ(a.res.opsRouted, b.res.opsRouted);
    EXPECT_EQ(a.res.opsCompleted, b.res.opsCompleted);
    EXPECT_EQ(a.res.batchesDispatched, b.res.batchesDispatched);
    EXPECT_EQ(a.res.batchesCompleted, b.res.batchesCompleted);
    EXPECT_EQ(a.res.eventsFired, b.res.eventsFired);
    EXPECT_EQ(a.res.rounds, b.res.rounds);
    EXPECT_EQ(a.res.messages, b.res.messages);
    EXPECT_EQ(a.res.horizon, b.res.horizon);
    EXPECT_EQ(a.res.batchP50, b.res.batchP50);
    EXPECT_EQ(a.res.batchP99, b.res.batchP99);
    EXPECT_EQ(a.res.opP50, b.res.opP50);
    EXPECT_EQ(a.res.opP99, b.res.opP99);
    EXPECT_EQ(a.res.opP999, b.res.opP999);
    EXPECT_EQ(a.res.usersTouched, b.res.usersTouched);
    EXPECT_EQ(a.res.rebalances, b.res.rebalances);
    EXPECT_EQ(a.res.movedKeys, b.res.movedKeys);
    EXPECT_EQ(a.res.metricsJson, b.res.metricsJson);
    EXPECT_EQ(a.chromeJson, b.chromeJson);
}

/** Small-but-real workload: GC active, WAL wrapping, 4 shards. */
ClusterConfig
smallCluster()
{
    ClusterConfig cfg;
    cfg.shards = 4;
    cfg.cycles = 12;
    cfg.opsPerCycle = 32;
    return cfg;
}

} // namespace

TEST(ClusterDeterminism, BaWalGcRigIdenticalAcrossThreadCounts)
{
    ClusterConfig cfg = smallCluster();
    cfg.wal = ClusterConfig::Wal::ba;

    const ClusterRun serial = runAt(cfg, 1);
    ASSERT_GT(serial.res.opsCompleted, 0u);
    ASSERT_EQ(serial.res.opsCompleted, serial.res.opsRouted);
    ASSERT_GT(serial.res.messages, 0u);
    ASSERT_FALSE(serial.chromeJson.empty());

    expectIdentical(runAt(cfg, 2), serial, "2 threads vs serial");
    expectIdentical(runAt(cfg, 8), serial, "8 threads vs serial");
}

TEST(ClusterDeterminism, BlockWalRigIdenticalAcrossThreadCounts)
{
    ClusterConfig cfg = smallCluster();
    cfg.wal = ClusterConfig::Wal::block;

    const ClusterRun serial = runAt(cfg, 1);
    ASSERT_GT(serial.res.opsCompleted, 0u);
    ASSERT_EQ(serial.res.opsCompleted, serial.res.opsRouted);

    expectIdentical(runAt(cfg, 2), serial, "2 threads vs serial");
    expectIdentical(runAt(cfg, 8), serial, "8 threads vs serial");
}

TEST(ClusterDeterminism, QueueGatedRigIdenticalAcrossThreadCounts)
{
    // NVMe queue-pair gating adds host-side parking and re-posting to
    // the hot path; parked batches are released by completion events,
    // so this exercises the host domain's ordering under load.
    ClusterConfig cfg = smallCluster();
    cfg.queuePairs = 2;
    cfg.queueDepth = 1;
    cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
    cfg.arrival.burstSize = 6;
    cfg.arrival.burstGap = sim::usOf(5);

    const ClusterRun serial = runAt(cfg, 1);
    ASSERT_GT(serial.res.opsCompleted, 0u);
    ASSERT_EQ(serial.res.opsCompleted, serial.res.opsRouted);

    expectIdentical(runAt(cfg, 2), serial, "2 threads vs serial");
    expectIdentical(runAt(cfg, 8), serial, "8 threads vs serial");
}

TEST(ClusterDeterminism, DifferentSeedsDiverge)
{
    ClusterConfig cfg = smallCluster();
    const ClusterRun a = runAt(cfg, 1);
    cfg.seed = 99;
    const ClusterRun b = runAt(cfg, 1);
    EXPECT_NE(a.res.stateDigest, b.res.stateDigest);
}

TEST(ClusterDeterminism, SerialRerunIsIdentical)
{
    const ClusterConfig cfg = smallCluster();
    expectIdentical(runAt(cfg, 1), runAt(cfg, 1), "rerun vs first");
}

TEST(ClusterDeterminism, RebalanceInFlightIdenticalAcrossThreadCounts)
{
    // The hard case: a range move (hold → drain → copy → purge →
    // flip) executes while cycles keep arriving. The whole sequence
    // is host-domain orchestrated, so digests, merged metrics and
    // Chrome traces must still match the serial run byte for byte.
    for (bool range : {false, true}) {
        ClusterConfig cfg = smallCluster();
        cfg.sharding =
            range ? cluster::Sharding::range : cluster::Sharding::hash;
        cfg.cycles = 16;
        cfg.rebalanceAtCycle = 6;
        cfg.moveBegin256 = 0;
        cfg.moveEnd256 = 64;
        cfg.moveTo = cfg.shards - 1;

        const ClusterRun serial = runAt(cfg, 1);
        SCOPED_TRACE(range ? "range" : "hash");
        ASSERT_EQ(serial.res.rebalances, 1u);
        ASSERT_GT(serial.res.movedKeys, 0u);
        ASSERT_EQ(serial.res.opsCompleted, serial.res.opsRouted);

        expectIdentical(runAt(cfg, 2), serial, "2 threads vs serial");
        expectIdentical(runAt(cfg, 8), serial, "8 threads vs serial");
    }
}

TEST(ClusterDeterminism, ReplicatedWalIdenticalAcrossThreadCounts)
{
    // Replication ships records inside each shard's domain, so the
    // follower traffic must not perturb the cross-domain schedule.
    ClusterConfig cfg = smallCluster();
    cfg.wal = ClusterConfig::Wal::baRepl;

    const ClusterRun serial = runAt(cfg, 1);
    ASSERT_EQ(serial.res.opsCompleted, serial.res.opsRouted);

    expectIdentical(runAt(cfg, 2), serial, "2 threads vs serial");
    expectIdentical(runAt(cfg, 8), serial, "8 threads vs serial");
}

TEST(ClusterDeterminism, PgBurstyArrivalsIdenticalAcrossThreadCounts)
{
    // The other store engine and the other arrival process in one
    // cell: minipg shards fed by bursty cycle starts.
    ClusterConfig cfg = smallCluster();
    cfg.engine = ClusterConfig::Engine::pg;
    cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
    cfg.arrival.burstSize = 4;
    cfg.arrival.burstGap = sim::usOf(10);

    const ClusterRun serial = runAt(cfg, 1);
    ASSERT_EQ(serial.res.opsCompleted, serial.res.opsRouted);

    expectIdentical(runAt(cfg, 2), serial, "2 threads vs serial");
    expectIdentical(runAt(cfg, 8), serial, "8 threads vs serial");
}

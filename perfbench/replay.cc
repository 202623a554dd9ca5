#include "replay.hh"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "cluster/shard_map.hh"
#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "sim/client.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/ssd_device.hh"
#include "support/stopwatch.hh"
#include "wal/ba_wal.hh"
#include "wal/block_wal.hh"

namespace bssd::perfbench
{

namespace
{

/**
 * LogDevice decorator: forwards every call to the real WAL, counts
 * calls and bytes across log generations, and in a timed instance
 * accumulates the wall time of append/commit/truncate.
 */
class TimedLog final : public wal::LogDevice
{
  public:
    TimedLog(wal::LogDevice &inner, bool timed)
        : inner_(inner), timed_(timed)
    {}

    sim::Tick
    append(sim::Tick now, std::span<const std::uint8_t> record) override
    {
        ++calls_;
        bytesAppended_ += record.size();
        return timedCall([&] { return inner_.append(now, record); });
    }

    sim::Tick
    commit(sim::Tick now) override
    {
        ++calls_;
        ++commits_;
        return timedCall([&] { return inner_.commit(now); });
    }

    void
    truncate(sim::Tick now) override
    {
        ++calls_;
        ++truncates_;
        truncated_ = true;
        // bytesToStore() restarts with the log on some WALs (BA-WAL)
        // and keeps counting on others (block WAL); carrying over only
        // what the truncate dropped makes the total cumulative on both.
        const std::uint64_t before = inner_.bytesToStore();
        timedCall([&] {
            inner_.truncate(now);
            return now;
        });
        const std::uint64_t after = inner_.bytesToStore();
        retiredToStore_ += before > after ? before - after : 0;
    }

    void crash(sim::Tick t) override { inner_.crash(t); }

    std::vector<std::uint8_t>
    recoverContents() override
    {
        return inner_.recoverContents();
    }

    std::string name() const override { return inner_.name(); }

    std::uint64_t
    bytesAppended() const override
    {
        return inner_.bytesAppended();
    }

    std::uint64_t
    bytesToStore() const override
    {
        return inner_.bytesToStore();
    }

    bool
    needsCheckpoint() const override
    {
        return inner_.needsCheckpoint();
    }

    std::uint64_t
    recoveryChunkBytes() const override
    {
        return inner_.recoveryChunkBytes();
    }

    /** Wall seconds spent inside the WAL so far (timed instances). */
    double inclS() const { return inclS_; }

    /** True once per truncate: clears the flag it reads. */
    bool
    takeTruncated()
    {
        const bool t = truncated_;
        truncated_ = false;
        return t;
    }

    std::uint64_t calls() const { return calls_; }
    std::uint64_t commits() const { return commits_; }
    std::uint64_t truncates() const { return truncates_; }
    std::uint64_t totalAppended() const { return bytesAppended_; }

    std::uint64_t
    totalToStore() const
    {
        return retiredToStore_ + inner_.bytesToStore();
    }

  private:
    template <typename Fn>
    sim::Tick
    timedCall(Fn &&fn)
    {
        if (!timed_)
            return fn();
        bench::Stopwatch sw;
        const sim::Tick t = fn();
        inclS_ += sw.sec();
        return t;
    }

    wal::LogDevice &inner_;
    bool timed_;
    double inclS_ = 0.0;
    bool truncated_ = false;
    std::uint64_t calls_ = 0;
    std::uint64_t commits_ = 0;
    std::uint64_t truncates_ = 0;
    std::uint64_t bytesAppended_ = 0;
    std::uint64_t retiredToStore_ = 0;
};

/**
 * One shard's rig with the cluster's shard preset (cluster.cc's
 * shardDeviceConfig and buildShards). Members are declared in
 * construction order so the store dies before its log and the log
 * before its device.
 */
struct Rig
{
    std::unique_ptr<ba::TwoBSsd> twoB;
    std::unique_ptr<ssd::SsdDevice> blockDev;
    std::unique_ptr<wal::LogDevice> log;
    std::unique_ptr<TimedLog> timed;
    std::unique_ptr<db::miniredis::MiniRedis> redis;
    std::unique_ptr<db::minipg::MiniPg> pg;

    Rig(const cluster::ClusterConfig &cfg, unsigned shard, bool traced)
    {
        using Cfg = cluster::ClusterConfig;
        ssd::SsdConfig dev = ssd::SsdConfig::tiny();
        dev.name = "shard" + std::to_string(shard);
        if (cfg.gc) {
            dev.nandCfg.geometry.blocksPerDie = 6;
            dev.ftlCfg.backgroundGc = true;
            dev.ftlCfg.gcStepPages = 3;
            dev.nandCfg.sched.readPriority = true;
            dev.nandCfg.sched.eraseSuspend = true;
        }
        const std::uint64_t region = cfg.gc ? 128 * sim::KiB : sim::MiB;
        switch (cfg.wal) {
          case Cfg::Wal::ba: {
            ba::BaConfig bc;
            bc.bufferBytes = cfg.gc ? 64 * sim::KiB : 128 * sim::KiB;
            wal::BaWalConfig wc;
            wc.regionBytes = region;
            wc.halfBytes = cfg.gc ? 16 * sim::KiB : 32 * sim::KiB;
            wc.doubleBuffer = cfg.engine == Cfg::Engine::pg;
            twoB = std::make_unique<ba::TwoBSsd>(dev, bc);
            log = std::make_unique<wal::BaWal>(*twoB, wc);
            break;
          }
          case Cfg::Wal::block: {
            blockDev = std::make_unique<ssd::SsdDevice>(dev);
            wal::BlockWalConfig blk;
            blk.regionBytes = region;
            log = std::make_unique<wal::BlockWal>(*blockDev, blk);
            break;
          }
          case Cfg::Wal::baRepl:
            sim::fatal("replay: wal ", cluster::walName(cfg.wal),
                       " is not replayed");
        }
        timed = std::make_unique<TimedLog>(*log, traced);
        if (cfg.engine == Cfg::Engine::redis)
            redis = std::make_unique<db::miniredis::MiniRedis>(*timed);
        else
            pg = std::make_unique<db::minipg::MiniPg>(*timed);
    }

    const ssd::SsdDevice &
    device() const
    {
        return twoB ? twoB->device() : *blockDev;
    }
};

/** The cluster's value pattern: byte i of key k's value is k + i. */
std::vector<std::uint8_t>
valueFor(std::uint64_t key, std::uint32_t bytes)
{
    std::vector<std::uint8_t> v(bytes);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<std::uint8_t>(key + i);
    return v;
}

} // namespace

ReplayResult
replayShard(const cluster::ClusterConfig &cfg, unsigned shard, bool traced)
{
    Rig rig(cfg, shard, traced);
    const cluster::ShardMap map(cfg.sharding, cfg.shards, cfg.keySpace);
    // The router's generator: arrival stream and op RNG seeded as in
    // host::ShardRouter, drawn in the same order (key, kind, size).
    sim::OpenLoopArrivals arrivals(cfg.arrival, cfg.seed);
    sim::Rng rng(cfg.seed ^ 0x5eedf00du);
    const sim::Tick doorbell =
        rig.device().config().pcieCfg.minPostedLatency();

    ReplayResult res;
    double storeS = 0.0;
    sim::Tick clock = 0;
    bench::Stopwatch loop;
    bench::Stopwatch call;
    for (std::uint64_t c = 0; c < cfg.cycles; ++c) {
        sim::Tick t = std::max(arrivals.next() + doorbell, clock);
        for (std::uint32_t i = 0; i < cfg.opsPerCycle; ++i) {
            const std::uint64_t key = rng.nextBelow(cfg.keySpace);
            const bool set = rng.chance(cfg.setFraction);
            const std::uint32_t bytes =
                set ? static_cast<std::uint32_t>(rng.nextRange(
                          cfg.valueBytes / 2 + 1, cfg.valueBytes))
                    : 0;
            if (map.shardOf(key) != shard)
                continue;
            const std::vector<std::uint8_t> value = valueFor(key, bytes);
            const double walBefore = rig.timed->inclS();
            if (traced)
                call.restart();
            if (rig.redis) {
                const std::string k = "k" + std::to_string(key);
                t = set ? rig.redis->set(t, k, value)
                        : rig.redis->get(t, k);
            } else {
                t = set ? rig.pg->addNode(t, key, value)
                        : rig.pg->getNode(t, key);
            }
            ++res.ops;
            if (traced) {
                const double self =
                    call.sec() - (rig.timed->inclS() - walBefore);
                storeS += self;
                if (rig.timed->takeTruncated())
                    res.snapshotS += self;
            }
        }
        clock = t;
    }
    res.loopS = loop.sec();

    res.storeSelfS = storeS;
    res.walInclS = rig.timed->inclS();
    res.walCalls = rig.timed->calls();
    res.walCommits = rig.timed->commits();
    res.snapshots = rig.timed->truncates();
    res.bytesAppended = rig.timed->totalAppended();
    res.bytesToStore = rig.timed->totalToStore();
    res.contentHash =
        rig.redis ? rig.redis->contentHash() : rig.pg->contentHash();
    // Same components, same prefixes as Cluster::metricsSnapshot().
    sim::MetricRegistry reg;
    const std::string prefix = "shard" + std::to_string(shard);
    if (rig.twoB)
        rig.twoB->registerMetrics(reg, prefix + ".ba");
    if (rig.blockDev)
        rig.blockDev->registerMetrics(reg, prefix + ".ssd");
    rig.log->registerMetrics(reg, prefix + ".wal");
    res.metrics = reg.snapshot();
    return res;
}

} // namespace bssd::perfbench

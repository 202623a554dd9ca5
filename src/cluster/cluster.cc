#include "cluster/cluster.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "ssd/nvme_queue.hh"
#include "wal/rig.hh"

namespace bssd::cluster
{

namespace
{

/** Host-domain drain-poll cadence during a rebalance. */
constexpr sim::Tick kDrainPoll = sim::usOf(100);

/**
 * Deterministic value payload for key @p key, written into @p buf:
 * byte i is key + i. verifyConsistency() re-derives this pattern,
 * which is what proves the rebalance copy path moved the actual bytes.
 */
std::span<const std::uint8_t>
valueFor(std::vector<std::uint8_t> &buf, std::uint64_t key,
         std::uint32_t bytes)
{
    buf.resize(bytes);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(key + i);
    return buf;
}

/** Index of the first byte of @p value off valueFor()'s pattern for
 *  @p key, or value.size() when every byte matches. */
std::size_t
corruptByte(std::uint64_t key, std::span<const std::uint8_t> value)
{
    std::size_t i = 0;
    while (i < value.size() && value[i] == static_cast<std::uint8_t>(key + i))
        ++i;
    return i;
}

/** Redis key text for a router key. */
std::string
redisKey(std::uint64_t key)
{
    return "k" + std::to_string(key);
}

/**
 * Group prefetching over one redis shard batch (Chen et al., ICDE
 * 2004): the misses of the next ops overlap the current op's work.
 * Each op's key text is written and hashed once, kSlotAhead ops before
 * it runs, and its home slot prefetched; kEntryAhead ops before, the
 * now-cached slot names the entry to prefetch; kValueAhead ops before
 * a SET, its value buffer, which the pre-image copy and the overwrite
 * touch. The keys live in a ring sized to the lookahead, whatever the
 * batch's length.
 */
class KeyPipeline
{
  public:
    using HashedKey = db::miniredis::MiniRedis::HashedKey;

    KeyPipeline(const db::miniredis::MiniRedis &store,
                const std::vector<host::RouterOp> &ops)
        : store_(store), ops_(ops)
    {
        for (std::size_t j = 0; j < std::min(ops_.size(), kSlotAhead); ++j)
            stage(j);
        for (std::size_t j = 0; j < std::min(ops_.size(), kEntryAhead); ++j)
            store_.prefetchEntry(ring_[j % kSize].key);
    }

    /** Op @p i's key, after starting the prefetches of the ops ahead
     *  of it; called for i = 0, 1, ... in turn. */
    const HashedKey &
    key(std::size_t i)
    {
        const std::size_t n = ops_.size();
        if (i + kSlotAhead < n)
            stage(i + kSlotAhead);
        if (i + kEntryAhead < n)
            store_.prefetchEntry(ring_[(i + kEntryAhead) % kSize].key);
        if (i + kValueAhead < n &&
            ops_[i + kValueAhead].kind == host::RouterOp::Kind::set) {
            store_.prefetchValue(ring_[(i + kValueAhead) % kSize].key);
        }
        return ring_[i % kSize].key;
    }

  private:
    static constexpr std::size_t kSlotAhead = 8;
    static constexpr std::size_t kEntryAhead = 4;
    static constexpr std::size_t kValueAhead = 2;
    /** Ops i..i+kSlotAhead are live. */
    static constexpr std::size_t kSize = 16;
    static_assert(kSize > kSlotAhead && kSlotAhead > kEntryAhead &&
                  kEntryAhead > kValueAhead);

    struct Slot
    {
        /** redisKey(): "k" and up to 20 decimal digits. */
        std::array<char, 24> text;
        HashedKey key;
    };

    /** Write and hash op @p j's key, and prefetch its home slot. */
    void
    stage(std::size_t j)
    {
        Slot &s = ring_[j % kSize];
        s.text[0] = 'k';
        const char *end = std::to_chars(s.text.data() + 1,
                                        s.text.data() + s.text.size(),
                                        ops_[j].key)
                              .ptr;
        s.key = db::miniredis::MiniRedis::hashed(std::string_view(
            s.text.data(), static_cast<std::size_t>(end - s.text.data())));
        store_.prefetchSlot(s.key);
    }

    const db::miniredis::MiniRedis &store_;
    const std::vector<host::RouterOp> &ops_;
    std::array<Slot, kSize> ring_;
};

/** Router key of a Redis key text (redisKey()'s inverse). */
std::uint64_t
redisKeyId(const std::string &key)
{
    std::uint64_t id = 0;
    const char *end = key.data() + key.size();
    if (key.size() < 2 || key[0] != 'k' ||
        std::from_chars(key.data() + 1, end, id).ptr != end) {
        sim::panic("cluster: malformed Redis key '", key, "'");
    }
    return id;
}

/** FNV-1a fold helper shared by the digest paths. */
struct Fnv
{
    std::uint64_t h = 14695981039346656037ull;

    void
    mix(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

} // namespace

const char *
engineName(ClusterConfig::Engine e)
{
    switch (e) {
      case ClusterConfig::Engine::redis: return "redis";
      case ClusterConfig::Engine::pg: return "pg";
    }
    return "?";
}

const char *
walName(ClusterConfig::Wal w)
{
    switch (w) {
      case ClusterConfig::Wal::ba: return "ba";
      case ClusterConfig::Wal::block: return "block";
      case ClusterConfig::Wal::baRepl: return "ba_repl";
    }
    return "?";
}

/**
 * One shard: a store over a rig, living in the rig's domain. A
 * replicated rig's follower domain is never registered with the
 * engine: the ReplicatedWal models the inter-device link entirely
 * inside the primary's domain, and nothing schedules events on the
 * follower's queue.
 */
struct Cluster::Shard
{
    rigs::Rig rig;
    std::unique_ptr<db::miniredis::MiniRedis> redis;
    std::unique_ptr<db::minipg::MiniPg> pg;
    sim::Tracer tracer;
    /** Shard-local service clock: batches queue behind each other. */
    sim::Tick clock = 0;
    /** The SET value being written (valueFor()). */
    std::vector<std::uint8_t> value;

    sim::Domain &
    domain()
    {
        return rig.dataDevice().domain();
    }

    std::uint64_t
    contentHash() const
    {
        return redis ? redis->contentHash() : pg->contentHash();
    }
};

namespace
{

/** The rig a shard's (engine, wal) pair runs on: redis shards keep
 *  their BA-WALs single-buffered (ClusterConfig::Wal). */
rigs::RigSpec
shardSpec(const ClusterConfig &cfg, unsigned shard)
{
    const bool single = cfg.engine == ClusterConfig::Engine::redis;
    rigs::WalKind kind = rigs::WalKind::block;
    switch (cfg.wal) {
      case ClusterConfig::Wal::ba:
        kind = single ? rigs::WalKind::baSingle : rigs::WalKind::ba;
        break;
      case ClusterConfig::Wal::block:
        break;
      case ClusterConfig::Wal::baRepl:
        kind = single ? rigs::WalKind::baReplSingle
                      : rigs::WalKind::baRepl;
        break;
    }
    rigs::RigSpec spec = cfg.gc ? rigs::gcSpec(kind) : rigs::tinySpec(kind);
    spec.name = "shard" + std::to_string(shard);
    return spec;
}

} // namespace

Cluster::Cluster(const ClusterConfig &cfg, sim::Tracer *trace)
    : cfg_(cfg),
      engine_(cfg.engineThreads),
      host_("host"),
      map_(cfg.sharding, cfg.shards == 0 ? 1 : cfg.shards,
           cfg.keySpace),
      trace_(trace)
{
    if (cfg_.shards == 0)
        sim::fatal("Cluster: at least one shard required");
    if (cfg_.queuePairs == 0)
        sim::fatal("Cluster: at least one queue pair per shard required");
    if (cfg_.rebalanceAtCycle > cfg_.cycles) {
        sim::fatal("Cluster: rebalance at cycle ", cfg_.rebalanceAtCycle,
                   " never starts in a run of ", cfg_.cycles, " cycles");
    }
    if (cfg_.rebalanceAtCycle > 0) {
        if (cfg_.moveTo >= cfg_.shards)
            sim::fatal("Cluster: moveTo shard ", cfg_.moveTo, " of ",
                       cfg_.shards);
        if (cfg_.moveBegin256 >= cfg_.moveEnd256 ||
            cfg_.moveEnd256 > 256) {
            sim::fatal("Cluster: bad move interval [",
                       cfg_.moveBegin256, ", ", cfg_.moveEnd256,
                       ")/256");
        }
    }

    host_.adopt(this, sizeof(*this), "cluster");
    engine_.add(host_);
    buildShards(trace);

    host::RouterConfig rc;
    rc.opsPerCycle = cfg_.opsPerCycle;
    rc.cycles = cfg_.cycles;
    rc.arrival = cfg_.arrival;
    rc.setFraction = cfg_.setFraction;
    rc.keySpace = cfg_.keySpace;
    rc.valueBytes = cfg_.valueBytes;
    rc.seed = cfg_.seed;
    rc.queuePairs = cfg_.queuePairs;
    rc.queueDepth = cfg_.queueDepth;
    // The channel contract: requests ride a posted doorbell write,
    // completions an interrupt; the lookaheads are exactly those
    // minimum latencies.
    rc.requestLatency = shards_.front()
                            ->rig.dataDevice()
                            .config()
                            .pcieCfg.minPostedLatency();
    rc.completionLatency = ssd::NvmeQueueConfig{}.completionCost;
    for (sim::Domain *d : shardDoms_) {
        engine_.connect(host_, *d, rc.requestLatency);
        engine_.connect(*d, host_, rc.completionLatency);
    }

    // One route function for the whole run: it reads the live map, so
    // the rebalance flip changes routing without swapping the
    // function. Called only from the host domain.
    router_ = std::make_unique<host::ShardRouter>(
        rc, host_, shardDoms_, makeExec(),
        [this](const host::RouterOp &op) {
            return map_.shardOf(op.key);
        });
    if (cfg_.rebalanceAtCycle > 0) {
        router_->setCycleHook(
            [this](std::uint64_t cycles) { onCycle(cycles); });
    }

    // Host-side tracing (stream 0; shard tracers are streams 1..N).
    // The domain tracer makes context-carrying posts (rebalance hops)
    // land with their request identity in scope.
    hostTracer_.setStream(0);
    if (trace_ != nullptr) {
        host_.setTracer(&hostTracer_);
        router_->setTracer(&hostTracer_);
    } else {
        hostTracer_.setEnabled(false);
    }

    buildSlo();
}

Cluster::~Cluster()
{
    for (auto &sh : shards_)
        sh->domain().release(sh.get());
    host_.release(this);
}

void
Cluster::buildShards(sim::Tracer *trace)
{
    shards_.reserve(cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->rig = rigs::makeRig(shardSpec(cfg_, s));
        if (cfg_.engine == ClusterConfig::Engine::redis) {
            shard->redis = std::make_unique<db::miniredis::MiniRedis>(
                *shard->rig.log);
        } else {
            shard->pg = std::make_unique<db::minipg::MiniPg>(
                *shard->rig.log);
        }
        if (trace) {
            // Stream s+1 keeps this shard's global span ids disjoint
            // from the host's (stream 0) and every other shard's.
            shard->tracer.setStream(s + 1);
            shard->domain().setTracer(&shard->tracer);
            shard->rig.installTracer(&shard->tracer);
        }
        shards_.push_back(std::move(shard));
        // The Shard aggregate (store, WAL handle, tracer, service
        // clock) is state of its own domain; the rig components
        // already adopted themselves in their constructors.
        shards_.back()->domain().adopt(shards_.back().get(),
                                       sizeof(Shard), "cluster.shard");
        engine_.add(shards_.back()->domain());
        shardDoms_.push_back(&shards_.back()->domain());
    }
}

host::ShardRouter::ShardExec
Cluster::makeExec()
{
    return [this](unsigned s, sim::Tick start,
                  const std::vector<host::RouterOp> &ops,
                  std::vector<sim::Tick> &opDone) {
        Shard &sh = *shards_[s];
        sim::Tick t = std::max(start, sh.clock);
        opDone.reserve(ops.size());
        std::optional<KeyPipeline> keys;
        if (sh.redis)
            keys.emplace(*sh.redis, ops);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const host::RouterOp &op = ops[i];
            // Scope the op's request identity around its execution:
            // the exec span adopts the trace and cross-links to the
            // op's (future) root span in the host tracer, and every
            // WAL/device span below nests under it.
            sim::SpanId execSpan = 0;
            if (op.trace != 0) {
                sh.tracer.pushContext(
                    sim::TraceContext{op.trace, op.gid});
                execSpan = sh.tracer.beginSpan("shard", "exec", t);
            }
            if (sh.redis) {
                const KeyPipeline::HashedKey &key = keys->key(i);
                if (op.kind == host::RouterOp::Kind::set) {
                    t = sh.redis->set(
                        t, key, valueFor(sh.value, op.key, op.valueBytes));
                } else {
                    t = sh.redis->get(t, key);
                }
            } else {
                // addNode upserts (XLOG replay assigns), so SET maps
                // onto it for both fresh and existing ids.
                if (op.kind == host::RouterOp::Kind::set) {
                    t = sh.pg->addNode(
                        t, op.key,
                        valueFor(sh.value, op.key, op.valueBytes));
                } else {
                    t = sh.pg->getNode(t, op.key);
                }
            }
            if (op.trace != 0) {
                sh.tracer.endSpan(execSpan, t);
                sh.tracer.popContext();
            }
            opDone.push_back(t);
        }
        sh.clock = t;
        return t;
    };
}

void
Cluster::run()
{
    if (ran_)
        sim::panic("Cluster::run() called twice");
    ran_ = true;
    router_->start();

    // Advance the horizon in fixed strides until the router drains
    // and the rebalance (if any) has flipped. Queue states are
    // identical at every thread count, so the resulting sequence of
    // run() horizons — and the final horizon_ — is too. When a stride
    // lands between distant arrivals the loop jumps straight to the
    // next pending event instead of crawling there, so a saturated
    // fleet that needs many simulated seconds to drain its backlog
    // still terminates (progress-based, not a fixed try count).
    const bool wantRebal = cfg_.rebalanceAtCycle > 0;
    const sim::Tick chunk = sim::msOf(5);
    auto finished = [&] {
        return router_->done() &&
               (!wantRebal || rebal_ == Rebal::done);
    };
    auto nextEvent = [&] {
        sim::Tick next = host_.queue().nextEventTime();
        for (auto &sh : shards_)
            next = std::min(next, sh->domain().queue().nextEventTime());
        return next;
    };
    while (!finished()) {
        const sim::Tick next = nextEvent();
        horizon_ = std::max(horizon_ + chunk, next == sim::maxTick
                                                  ? sim::Tick(0)
                                                  : next);
        if (engine_.run(horizon_) == 0 && next == sim::maxTick) {
            // Nothing fired, nothing pending, and no cross-domain
            // message can still be in flight (posts land within one
            // channel lookahead ≪ chunk of their send): the fleet is
            // deadlocked with work outstanding.
            sim::panic("Cluster: deadlocked before draining "
                       "(rebalance at cycle ", cfg_.rebalanceAtCycle,
                       " of ", cfg_.cycles, ")");
        }
        // The engine is quiescent between runs, so the gauges read a
        // consistent fleet state at the shared horizon tick — every
        // sampler rows at the same ticks and the merged series joins.
        sampleSlo(horizon_);
    }

    slo_.merge(*hostSloSampler_);
    for (const auto &s : sloSamplers_)
        slo_.merge(*s);

    if (trace_) {
        // Host first (stream 0), then shards in domain-id order: a
        // fixed merge order, so the trace is a pure function of the
        // run at any thread count.
        trace_->append(hostTracer_);
        for (const auto &sh : shards_)
            trace_->append(sh->tracer);
    }
}

void
Cluster::sampleSlo(sim::Tick now)
{
    hostSloSampler_->sample(now);
    for (const auto &s : sloSamplers_)
        s->sample(now);
}

void
Cluster::buildSlo()
{
    const sim::Tick period = sim::msOf(1);
    hostSloReg_ = std::make_unique<sim::MetricRegistry>();
    hostSloReg_->addGauge("slo.cluster.held_ops", [this] {
        return static_cast<double>(router_->heldOps());
    });
    hostSloReg_->addGauge("slo.cluster.hold_ticks", [this] {
        const bool holding = rebal_ == Rebal::draining ||
                             rebal_ == Rebal::copying;
        return holding
                   ? static_cast<double>(host_.now() - rebalStart_)
                   : 0.0;
    });
    hostSloReg_->addGauge("slo.cluster.queue_depth", [this] {
        std::uint64_t q = 0;
        for (unsigned s = 0; s < cfg_.shards; ++s)
            q += router_->outstanding(s);
        return static_cast<double>(q);
    });
    hostSloSampler_ =
        std::make_unique<sim::GaugeSampler>(*hostSloReg_, period);

    for (unsigned s = 0; s < cfg_.shards; ++s) {
        auto reg = std::make_unique<sim::MetricRegistry>();
        const std::string p = "slo.shard" + std::to_string(s);
        Shard *sh = shards_[s].get();
        reg->addGauge(p + ".queue_depth", [this, s] {
            return static_cast<double>(router_->outstanding(s));
        });
        reg->addGauge(p + ".wal_bytes", [sh] {
            return static_cast<double>(sh->rig.log->bytesToStore());
        });
        reg->addGauge(p + ".gc_debt", [sh] {
            // Blocks short of the GC high watermark: >0 means the
            // shard is burning margin and relocations are (or will
            // be) stealing bandwidth from foreground ops.
            ssd::SsdDevice &dev = sh->rig.dataDevice();
            const auto &fc = dev.config().ftlCfg;
            const std::uint32_t free = dev.ftl().freeBlocks();
            return free >= fc.gcHighWaterBlocks
                       ? 0.0
                       : static_cast<double>(fc.gcHighWaterBlocks -
                                             free);
        });
        reg->addGauge(p + ".p99_ticks", [this, s] {
            return static_cast<double>(router_->windowP99(s));
        });
        // Only the rebalance TARGET registers this gauge — the merged
        // snapshot/series must keep such one-sided columns (the
        // union-merge regression the tests pin down).
        if (cfg_.rebalanceAtCycle > 0 && s == cfg_.moveTo) {
            reg->addGauge(p + ".inbound_keys", [this] {
                return static_cast<double>(movedKeys_);
            });
        }
        sloSamplers_.push_back(
            std::make_unique<sim::GaugeSampler>(*reg, period));
        sloRegs_.push_back(std::move(reg));
    }
}

// --- Rebalance state machine. Every step runs in the host domain or
// --- hops to a shard through the same posted request/completion
// --- channels as normal traffic, so the whole sequence is ordered by
// --- the engine's deterministic message delivery. ------------------

void
Cluster::onCycle(std::uint64_t cyclesDone)
{
    BSSD_OWN_GUARD(this);
    if (rebal_ == Rebal::idle && cyclesDone >= cfg_.rebalanceAtCycle)
        startRebalance();
}

void
Cluster::startRebalance()
{
    BSSD_OWN_GUARD(this);
    // n/256ths of the routing space, exact for n == 256 and without
    // overflowing u64 even for the hash map's 2^63 space.
    auto scaled = [this](std::uint32_t n) {
        const std::uint64_t space = map_.space();
        return (space / 256) * n + (space % 256) * n / 256;
    };
    const std::uint64_t begin = scaled(cfg_.moveBegin256);
    const std::uint64_t end = scaled(cfg_.moveEnd256);
    if (begin == end) {
        sim::fatal("Cluster: move interval [", cfg_.moveBegin256,
                   ", ", cfg_.moveEnd256, ")/256 rounds to nothing in "
                   "a routing space of ", map_.space());
    }
    plan_ = map_.planMove(begin, end, cfg_.moveTo);
    if (plan_.empty()) {
        // The interval is already owned by the target: nothing to
        // drain or copy, and the map needs no flip.
        rebal_ = Rebal::done;
        ++rebalances_;
        return;
    }
    rebal_ = Rebal::draining;
    rebalStart_ = host_.now();
    if (hostTracer_.enabled()) {
        // The rebalance borrows a trace id from the router's mint so
        // it can never collide with an op's, and pre-mints the gid of
        // its root span so every hop's spans cross-link to it.
        rebalTrace_ = router_->mintTraceId();
        rebalGid_ = hostTracer_.mintGid();
    }
    // Park every operation whose routing point is mid-move; they
    // re-route and dispatch after the flip.
    router_->setHold([this, begin, end](const host::RouterOp &op) {
        const std::uint64_t p = map_.point(op.key);
        return p >= begin && p < end;
    });
    host_.queue().schedule(host_.now() + kDrainPoll,
                           [this] { pollDrain(); });
}

void
Cluster::pollDrain()
{
    BSSD_OWN_GUARD(this);
    bool busy = false;
    for (const MoveRange &m : plan_)
        busy = busy || router_->outstanding(m.from) > 0;
    if (busy) {
        host_.queue().schedule(host_.now() + kDrainPoll,
                               [this] { pollDrain(); });
        return;
    }
    rebal_ = Rebal::copying;
    drainEnd_ = host_.now();
    runStep(0);
}

void
Cluster::runStep(std::size_t step)
{
    BSSD_OWN_GUARD(this);
    if (step == plan_.size()) {
        finishRebalance();
        return;
    }
    const MoveRange mr = plan_[step];
    const sim::Tick toVictim =
        engine_.lookahead(host_.id(), shardDoms_[mr.from]->id());

    // Hop 1: read the moving keys out of the victim, in its domain,
    // through the store's sorted iterator. The moving keys cannot
    // change under us: their operations are parked at the router and
    // the victim's in-flight batches drained before this step. (The
    // map is read-only until the flip, so consulting it from the
    // shard domain here is a benign concurrent read.)
    // Every hop carries the rebalance's trace context, so the spans
    // the copy records inside the shard domains (store reads, WAL
    // commits, device work) stitch under the "cluster"/"rebalance"
    // root finishRebalance() emits.
    host_.post(*shardDoms_[mr.from], host_.now() + toVictim,
               rebalCtx(), [this, step, mr] {
        Shard &sh = *shards_[mr.from];
        sim::Domain &dom = sh.domain();
        sim::Tick t = std::max(sh.clock, dom.now());
        auto moved = std::make_shared<std::vector<
            std::pair<std::uint64_t, std::vector<std::uint8_t>>>>();
        if (sh.redis) {
            sh.redis->forEachSorted(
                [&](const std::string &key,
                    std::span<const std::uint8_t> value) {
                    const std::uint64_t id = redisKeyId(key);
                    const std::uint64_t p = map_.point(id);
                    if (p < mr.begin || p >= mr.end)
                        return;
                    moved->emplace_back(
                        id, std::vector<std::uint8_t>(value.begin(),
                                                      value.end()));
                });
            for (const auto &kv : *moved)
                t = sh.redis->get(t, redisKey(kv.first));
        } else {
            sh.pg->forEachNodeSorted(
                [&](std::uint64_t id,
                    std::span<const std::uint8_t> payload) {
                    const std::uint64_t p = map_.point(id);
                    if (p < mr.begin || p >= mr.end)
                        return;
                    moved->emplace_back(
                        id,
                        std::vector<std::uint8_t>(payload.begin(),
                                                  payload.end()));
                });
            for (const auto &kv : *moved)
                t = sh.pg->getNode(t, kv.first);
        }
        sh.clock = t;
        const sim::Tick back =
            engine_.lookahead(dom.id(), host_.id());

        // Hop 2: back to the host with the data, then durably into
        // the target shard.
        dom.post(host_, t + back, rebalCtx(),
                 [this, step, mr, moved] {
            movedKeys_ += moved->size();
            const sim::Tick toTarget = engine_.lookahead(
                host_.id(), shardDoms_[mr.to]->id());
            host_.post(*shardDoms_[mr.to], host_.now() + toTarget,
                       rebalCtx(), [this, step, mr, moved] {
                Shard &dst = *shards_[mr.to];
                sim::Domain &ddom = dst.domain();
                sim::Tick t = std::max(dst.clock, ddom.now());
                for (const auto &[id, value] : *moved) {
                    if (dst.redis)
                        t = dst.redis->set(t, redisKey(id), value);
                    else
                        t = dst.pg->addNode(t, id, value);
                }
                dst.clock = t;
                const sim::Tick back2 =
                    engine_.lookahead(ddom.id(), host_.id());

                // Hop 3: back to the host, then durably purge the
                // victim's copies of the moved keys.
                ddom.post(host_, t + back2, rebalCtx(),
                          [this, step, mr, moved] {
                    const sim::Tick toVic = engine_.lookahead(
                        host_.id(), shardDoms_[mr.from]->id());
                    host_.post(*shardDoms_[mr.from],
                               host_.now() + toVic, rebalCtx(),
                               [this, step, mr, moved] {
                        Shard &vic = *shards_[mr.from];
                        sim::Domain &vdom = vic.domain();
                        sim::Tick t =
                            std::max(vic.clock, vdom.now());
                        for (const auto &kv : *moved) {
                            if (vic.redis) {
                                t = vic.redis->del(
                                    t, redisKey(kv.first));
                            } else {
                                t = vic.pg->deleteNode(t, kv.first);
                            }
                        }
                        vic.clock = t;
                        const sim::Tick back3 = engine_.lookahead(
                            vdom.id(), host_.id());
                        vdom.post(host_, t + back3, rebalCtx(),
                                  [this, step] {
                            runStep(step + 1);
                        });
                    });
                });
            });
        });
    });
}

void
Cluster::finishRebalance()
{
    BSSD_OWN_GUARD(this);
    // The tick barrier: one host-domain event flips the map, drops
    // the hold, and re-routes every parked operation through the new
    // owners. No operation can observe a half-applied map.
    map_.apply(plan_);
    router_->setHold(nullptr);
    router_->releaseHeld();
    rebal_ = Rebal::done;
    ++rebalances_;
    if (rebalTrace_ != 0) {
        // The rebalance's own span tree: a root over the whole move
        // (under the gid every hop already cross-linked to) split
        // into its drain and copy phases.
        const sim::Tick now = host_.now();
        hostTracer_.recordSpan("cluster", "rebalance", rebalStart_,
                               now,
                               sim::TraceContext{rebalTrace_, 0},
                               rebalGid_);
        hostTracer_.recordSpan("cluster", "drain", rebalStart_,
                               drainEnd_,
                               sim::TraceContext{rebalTrace_,
                                                 rebalGid_});
        hostTracer_.recordSpan("cluster", "copy", drainEnd_, now,
                               sim::TraceContext{rebalTrace_,
                                                 rebalGid_});
    }
}

std::uint64_t
Cluster::stateDigest() const
{
    Fnv f;
    for (const auto &sh : shards_) {
        f.mix(sh->contentHash());
        if (sh->redis) {
            f.mix(sh->redis->commandsProcessed());
            f.mix(sh->redis->keys());
        } else {
            f.mix(sh->pg->committedTxns());
            f.mix(sh->pg->nodeCount());
            f.mix(sh->pg->linkCount());
        }
        f.mix(sh->rig.dataDevice().readsServed());
        f.mix(sh->rig.dataDevice().writesServed());
        if (sh->rig.followerTwoB) {
            f.mix(sh->rig.followerTwoB->device().readsServed());
            f.mix(sh->rig.followerTwoB->device().writesServed());
        }
    }
    f.mix(map_.version());
    f.mix(movedKeys_);
    return f.h;
}

sim::MetricsSnapshot
Cluster::metricsSnapshot() const
{
    sim::MetricRegistry reg;
    engine_.registerMetrics(reg, "engine");
    for (unsigned s = 0; s < cfg_.shards; ++s)
        shards_[s]->rig.registerMetrics(reg, "shard" + std::to_string(s));
    sim::MetricsSnapshot snap = reg.snapshot();
    // The SLO gauges live in per-shard registries (each with its own
    // sampler); merge() is a path union, which is what carries gauges
    // only one shard registers (e.g. the move target's inbound_keys)
    // into the combined snapshot.
    snap.merge(hostSloReg_->snapshot());
    for (const auto &r : sloRegs_)
        snap.merge(r->snapshot());
    return snap;
}

std::string
Cluster::metricsJson() const
{
    std::ostringstream out;
    metricsSnapshot().writeJson(out);
    return out.str();
}

std::string
Cluster::sloJson() const
{
    std::ostringstream out;
    slo_.writeJson(out);
    return out.str();
}

std::uint64_t
Cluster::shardContentHash(unsigned shard) const
{
    return shards_.at(shard)->contentHash();
}

std::uint64_t
Cluster::shardItems(unsigned shard) const
{
    const Shard &sh = *shards_.at(shard);
    return sh.redis ? sh.redis->keys() : sh.pg->nodeCount();
}

std::uint64_t
Cluster::shardCheckpoints(unsigned shard) const
{
    const Shard &sh = *shards_.at(shard);
    return sh.redis ? sh.redis->aofRewrites() : sh.pg->checkpoints();
}

void
Cluster::verifyConsistency() const
{
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        const Shard &sh = *shards_[s];
        // One pass in the store's unordered scan order (MiniRedis's
        // entry order, MiniPg's hash order). It keeps the failing key
        // that sorts first in the store's own key order, so the report
        // names the key a sorted scan would have stopped at, whatever
        // the scan order.
        auto sortsBefore = [&](std::uint64_t a, std::uint64_t b) {
            return sh.redis ? redisKey(a) < redisKey(b) : a < b;
        };
        struct Fault
        {
            std::uint64_t id;
            std::size_t byte; // first corrupt byte, or the value size
        };
        std::optional<Fault> bad;
        auto visit = [&](std::uint64_t id,
                         std::span<const std::uint8_t> value) {
            const std::size_t byte = corruptByte(id, value);
            if ((map_.shardOf(id) != s || byte < value.size()) &&
                (!bad || sortsBefore(id, bad->id))) {
                bad = Fault{id, byte};
            }
        };
        if (sh.redis) {
            sh.redis->forEachUnordered(
                [&](const std::string &key,
                    std::span<const std::uint8_t> value) {
                    visit(redisKeyId(key), value);
                });
        } else {
            sh.pg->forEachNodeUnordered(visit);
        }
        if (!bad)
            continue;
        const unsigned owner = map_.shardOf(bad->id);
        if (owner != s) {
            sim::panic("cluster consistency: key ", bad->id,
                       " stored on shard ", s, " but the map (",
                       map_.describe(), ") owns it to shard ", owner);
        }
        sim::panic("cluster consistency: key ", bad->id, " on shard ", s,
                   " has corrupt payload byte ", bad->byte);
    }
}

bool
Cluster::crashAndRecoverShard(unsigned shard)
{
    Shard &sh = *shards_.at(shard);
    wal::ReplicatedWal *repl = sh.rig.repl;
    if (repl == nullptr) {
        sim::panic("crashAndRecoverShard: shard ", shard,
                   " has no replicated WAL (wal=", walName(cfg_.wal),
                   ")");
    }
    const std::uint64_t before = sh.contentHash();
    // Power-cut the primary; the decorator loses its in-flight state
    // and promotes the follower as the recovery source. The cut time
    // must not precede the domain clock (the engine advanced it to
    // the run horizon), or the capacitor-dump events the power loss
    // schedules would land in the past.
    repl->crash(std::max(sh.clock, sh.domain().now()));
    if (sh.redis)
        sh.redis->recover();
    else
        sh.pg->recover();
    return sh.contentHash() == before && repl->promoted();
}

ClusterResult
runCluster(const ClusterConfig &cfg, sim::Tracer *trace)
{
    Cluster c(cfg, trace);
    c.run();
    // Every cluster run doubles as a consistency check: ownership and
    // payload bytes must line up with the (possibly rebalanced) map.
    c.verifyConsistency();

    ClusterResult res;
    const host::ShardRouter &router = c.router();
    res.opsRouted = router.opsRouted();
    res.opsCompleted = router.opsCompleted();
    res.batchesDispatched = router.batchesDispatched();
    res.batchesCompleted = router.batchesCompleted();
    res.eventsFired = c.engine().eventsFired();
    res.rounds = c.engine().rounds();
    res.messages = c.engine().messagesDelivered();
    res.horizon = c.horizon();
    res.batchP50 = router.batchLatency().percentile(50.0);
    res.batchP99 = router.batchLatency().percentile(99.0);
    res.opP50 = router.opLatency().percentile(50.0);
    res.opP99 = router.opLatency().percentile(99.0);
    res.opP999 = router.opLatency().percentile(99.9);
    res.usersTouched = router.usersTouched();
    res.rebalances = c.rebalancesDone();
    res.movedKeys = c.movedKeys();
    res.stateDigest = c.stateDigest();
    res.metricsJson = c.metricsJson();
    res.sloSeriesJson = c.sloJson();
    return res;
}

} // namespace bssd::cluster

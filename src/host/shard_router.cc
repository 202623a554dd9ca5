#include "host/shard_router.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "sim/logging.hh"

namespace bssd::host
{

namespace
{

/** Per-op tracing identity carried through a batch's round trip. */
struct OpTag
{
    std::uint64_t trace = 0;
    std::uint64_t gid = 0;
    sim::Tick gen = 0;
    RouterOp::Kind kind = RouterOp::Kind::get;
};

} // namespace

ShardRouter::ShardRouter(const RouterConfig &cfg,
                         sim::Domain &hostDomain,
                         std::vector<sim::Domain *> shardDomains,
                         ShardExec exec, RouteFn route)
    : cfg_(cfg),
      host_(hostDomain),
      shards_(std::move(shardDomains)),
      exec_(std::move(exec)),
      route_(std::move(route)),
      arrivals_(cfg.arrival, cfg.seed),
      rng_(cfg.seed ^ 0x5eedf00du),
      touched_(cfg.keySpace, false),
      buckets_(shards_.size()),
      outstanding_(shards_.size(), 0),
      pending_(shards_.size()),
      qpInflight_(shards_.size(),
                  std::vector<std::uint32_t>(
                      std::max<std::uint16_t>(1, cfg.queuePairs), 0)),
      qpCursor_(shards_.size(), 0),
      latWindow_(shards_.size()),
      latWindowPos_(shards_.size(), 0)
{
    if (shards_.empty())
        sim::panic("ShardRouter needs at least one shard");
    if (!exec_)
        sim::panic("ShardRouter needs a shard executor");
    if (cfg_.queuePairs == 0)
        sim::panic("ShardRouter needs at least one queue pair");
    host_.adopt(this, sizeof(*this), "host.router");
}

ShardRouter::~ShardRouter()
{
    host_.release(this);
}

void
ShardRouter::start()
{
    if (cfg_.cycles == 0)
        return;
    host_.queue().schedule(arrivals_.next(), [this] { cycle(); });
}

unsigned
ShardRouter::routeOf(const RouterOp &op) const
{
    const unsigned s =
        route_ ? route_(op)
               : static_cast<unsigned>(op.key % shards_.size());
    if (s >= shards_.size())
        sim::panic("ShardRouter: route function returned shard ", s,
                   " of ", shards_.size());
    return s;
}

void
ShardRouter::enqueue(const RouterOp &op)
{
    if (hold_ && hold_(op)) {
        held_.push_back(op);
        return;
    }
    buckets_[routeOf(op)].push_back(op);
}

void
ShardRouter::flushBuckets()
{
    for (unsigned s = 0; s < buckets_.size(); ++s) {
        if (!buckets_[s].empty())
            dispatch(s, std::move(buckets_[s]));
    }
}

void
ShardRouter::cycle()
{
    BSSD_OWN_GUARD(this);
    // Generate this cycle's operations and partition them through the
    // route function. Bucket order (shard 0..N-1) and intra-bucket
    // order (generation order) are fixed, so the dispatch sequence is
    // a pure function of the seed.
    for (std::vector<RouterOp> &b : buckets_)
        b.clear();
    for (std::uint32_t i = 0; i < cfg_.opsPerCycle; ++i) {
        RouterOp op;
        op.key = rng_.nextBelow(cfg_.keySpace);
        if (rng_.chance(cfg_.setFraction)) {
            op.kind = RouterOp::Kind::set;
            op.valueBytes = static_cast<std::uint32_t>(rng_.nextRange(
                cfg_.valueBytes / 2 + 1, cfg_.valueBytes));
        }
        if (!touched_[op.key]) {
            touched_[op.key] = true;
            ++usersTouched_;
        }
        if (tracer_ != nullptr && tracer_->enabled()) {
            // Request identity, minted at generation: the trace id is
            // the op's global sequence number and the gid names the
            // root span recordSpan() will emit when the completion
            // returns. Both ride along through hold/re-route.
            op.trace = ++traceSeq_;
            op.gid = tracer_->mintGid();
            op.gen = host_.now();
        }
        enqueue(op);
    }
    flushBuckets();
    ++cyclesDone_;
    if (cyclesDone_ < cfg_.cycles) {
        host_.queue().schedule(arrivals_.next(), [this] { cycle(); });
    }
    if (cycleHook_)
        cycleHook_(cyclesDone_);
}

void
ShardRouter::releaseHeld()
{
    BSSD_OWN_GUARD(this);
    if (held_.empty())
        return;
    for (std::vector<RouterOp> &b : buckets_)
        b.clear();
    const sim::Tick now = host_.now();
    for (const RouterOp &op : held_) {
        // The time an op spent parked behind the rebalance hold is a
        // child span of its request — critical_path blames it on the
        // router layer.
        if (op.trace != 0 && tracer_ != nullptr) {
            tracer_->recordSpan("router", "hold", op.gen, now,
                                sim::TraceContext{op.trace, op.gid});
        }
        buckets_[routeOf(op)].push_back(op);
    }
    // Give the storage back: a hold can park hundreds of thousands of
    // ops, and the run may hold nothing again.
    std::vector<RouterOp>().swap(held_);
    flushBuckets();
}

std::size_t
ShardRouter::pickQueue(unsigned shard)
{
    if (cfg_.queueDepth == 0)
        return 0; // gating off: pair 0 absorbs everything
    std::vector<std::uint32_t> &qps = qpInflight_[shard];
    for (std::size_t tried = 0; tried < qps.size(); ++tried) {
        const std::size_t q = (qpCursor_[shard] + tried) % qps.size();
        if (qps[q] < cfg_.queueDepth) {
            qpCursor_[shard] = (q + 1) % qps.size();
            return q;
        }
    }
    return kNoQueue;
}

void
ShardRouter::dispatch(unsigned shard, std::vector<RouterOp> ops)
{
    const std::size_t qp = pickQueue(shard);
    if (qp == kNoQueue) {
        // Every pair is at depth. Park the batch; the completion that
        // frees a slot posts it. Parking requires a batch in flight on
        // this shard, so a completion always arrives to un-park it.
        ++batchesQueued_;
        pending_[shard].push_back({host_.now(), std::move(ops)});
        return;
    }
    dispatchOn(shard, qp, host_.now(), std::move(ops));
}

void
ShardRouter::dispatchOn(unsigned shard, std::size_t qp,
                        sim::Tick offered, std::vector<RouterOp> ops)
{
    BSSD_OWN_GUARD(this);
    const sim::Tick dispatched = host_.now();
    opsRouted_ += ops.size();
    ++batchesDispatched_;
    ++outstanding_[shard];
    if (cfg_.queueDepth != 0)
        ++qpInflight_[shard][qp];
    // Time spent parked behind full queue pairs is charged to the
    // router layer, one child span per op, like the rebalance hold.
    if (dispatched > offered && tracer_ != nullptr) {
        for (const RouterOp &op : ops) {
            if (op.trace != 0) {
                tracer_->recordSpan("router", "queue", offered,
                                    dispatched,
                                    sim::TraceContext{op.trace, op.gid});
            }
        }
    }
    // Tracing identities ride to the completion handler (which runs
    // back in the host domain and records the request spans there);
    // the vector stays empty — and costs nothing — when untraced.
    std::vector<OpTag> tags;
    if (tracer_ != nullptr && tracer_->enabled()) {
        tags.reserve(ops.size());
        for (const RouterOp &op : ops)
            tags.push_back({op.trace, op.gid, op.gen, op.kind});
    }
    // The doorbell: one posted write across the link. The batch
    // executes entirely inside the shard's domain, then the completion
    // interrupt crosses back.
    // A batch has no single request identity, so it posts an empty
    // context; per-op OpTags ride in `tags` and are pushed around each
    // op's spans inside the executor (DESIGN.md sec 16).
    host_.post(
        *shards_[shard], dispatched + cfg_.requestLatency, {},
        [this, shard, qp, offered, dispatched, ops = std::move(ops),
         tags = std::move(tags)] {
            sim::Domain &dom = *shards_[shard];
            const sim::Tick start = dom.now();
            std::vector<sim::Tick> opDone;
            const sim::Tick finish = exec_(shard, start, ops, opDone);
            if (opDone.size() != ops.size()) {
                sim::panic("ShardRouter: executor reported ",
                           opDone.size(), " finish ticks for ",
                           ops.size(), " ops");
            }
            const sim::Tick done =
                std::max(finish, start) + cfg_.completionLatency;
            // Host-observed per-op latency: batch formation (queueing
            // delay included) to the op's completion arriving with the
            // batch interrupt.
            std::vector<sim::Tick> lat;
            lat.reserve(opDone.size());
            for (sim::Tick d : opDone) {
                lat.push_back(std::max(d, start) +
                              cfg_.completionLatency - offered);
            }
            const auto count = static_cast<std::uint64_t>(ops.size());
            // The completion interrupt covers the whole batch, so it
            // too posts an empty context; per-op identities return via
            // the same OpTag vector (DESIGN.md sec 16).
            dom.post(host_, done, {},
                     [this, shard, qp, offered, dispatched, done, count,
                      lat = std::move(lat), tags = std::move(tags)] {
                         // Delivered into the host domain: the guard
                         // proves the completion interrupt crossed
                         // back through the mailbox.
                         BSSD_OWN_GUARD(this);
                         opsCompleted_ += count;
                         ++batchesCompleted_;
                         --outstanding_[shard];
                         latency_.record(done - offered);
                         for (sim::Tick l : lat) {
                             opLatency_.record(l);
                             recordLatency(shard, l);
                         }
                         // Request spans, recorded now that the op's
                         // full extent is known: the root (under the
                         // pre-minted gid the shard's spans already
                         // point at) plus the host-side doorbell and
                         // completion-delivery children.
                         for (std::size_t i = 0; i < tags.size(); ++i) {
                             const OpTag &t = tags[i];
                             if (t.trace == 0 || tracer_ == nullptr)
                                 continue;
                             const sim::Tick arrival =
                                 offered + lat[i];
                             tracer_->recordSpan(
                                 "router",
                                 t.kind == RouterOp::Kind::set
                                     ? "set" : "get",
                                 t.gen, arrival,
                                 sim::TraceContext{t.trace, 0}, t.gid);
                             tracer_->recordSpan(
                                 "router", "doorbell", dispatched,
                                 dispatched + cfg_.requestLatency,
                                 sim::TraceContext{t.trace, t.gid});
                             tracer_->recordSpan(
                                 "router", "completion",
                                 arrival - cfg_.completionLatency,
                                 arrival,
                                 sim::TraceContext{t.trace, t.gid});
                         }
                         // The freed slot immediately admits the
                         // oldest parked batch, if any — the router's
                         // analogue of the SQ doorbell ringing the
                         // moment a CQE is reaped.
                         if (cfg_.queueDepth != 0) {
                             --qpInflight_[shard][qp];
                             if (!pending_[shard].empty()) {
                                 PendingBatch pb = std::move(
                                     pending_[shard].front());
                                 pending_[shard].pop_front();
                                 dispatchOn(shard, qp, pb.offered,
                                            std::move(pb.ops));
                             }
                         }
                     });
        });
}

void
ShardRouter::recordLatency(unsigned shard, std::uint64_t lat)
{
    std::vector<std::uint64_t> &ring = latWindow_[shard];
    if (ring.size() < kLatencyWindow) {
        ring.push_back(lat);
        return;
    }
    ring[latWindowPos_[shard]] = lat;
    latWindowPos_[shard] = (latWindowPos_[shard] + 1) % kLatencyWindow;
}

std::uint64_t
ShardRouter::windowP99(unsigned shard) const
{
    return windowP99Of(latWindow_[shard]);
}

std::uint64_t
ShardRouter::windowP99Of(std::span<const std::uint64_t> samples)
{
    if (samples.empty())
        return 0;
    if (samples.size() > kLatencyWindow)
        sim::panic("windowP99Of: ", samples.size(), " samples exceed the ",
                   kLatencyWindow, "-sample window");
    // Nearest-rank p99 over whatever the window holds so far: the
    // rank-th smallest sample, selected in a copy on the stack.
    std::array<std::uint64_t, kLatencyWindow> window;
    const auto last = std::copy(samples.begin(), samples.end(),
                                window.begin());
    const std::size_t rank =
        std::min(samples.size() * 99 / 100, samples.size() - 1);
    const auto nth = window.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(window.begin(), nth, last);
    return *nth;
}

} // namespace bssd::host

#include "sim/engine.hh"

#include <algorithm>
#include <utility>

#ifdef BSSD_DOMAIN_CHECK
#include <map>
#include <mutex>
#endif

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace bssd::sim
{

#ifdef BSSD_DOMAIN_CHECK

namespace
{

/** One adopted allocation: [begin, begin+bytes) owned by a domain. */
struct OwnSpan
{
    std::size_t bytes;
    Domain *owner;
    const char *what;
};

/**
 * Process-wide ownership registry, keyed by span begin address. A
 * lookup steps back from upper_bound to the innermost covering span;
 * a nested member adopted on its own can sit address-wise between an
 * offending pointer and the outer span that covers it, so the walk
 * retries a few non-covering begins before giving up (nesting in this
 * codebase is at most rig > device; 16 is generous).
 *
 * Mutex-guarded: adoption happens at rig construction and guards run
 * only in checked builds, so the lock never costs a release build
 * anything.
 */
std::mutex ownMutex;
std::map<const void *, OwnSpan> ownSpans;

/** Domain whose window this thread is currently executing. */
thread_local Domain *tlsCurrentDomain = nullptr;

} // namespace

void
Domain::adopt(const void *obj, std::size_t bytes, const char *what)
{
    if (obj == nullptr || bytes == 0)
        return;
    std::lock_guard<std::mutex> lk(ownMutex);
    ownSpans[obj] = OwnSpan{bytes, this, what};
}

void
Domain::release(const void *obj)
{
    std::lock_guard<std::mutex> lk(ownMutex);
    ownSpans.erase(obj);
}

Domain *
Domain::current()
{
    return tlsCurrentDomain;
}

void
detail::ownGuard(const void *obj)
{
    Domain *cur = tlsCurrentDomain;
    if (cur == nullptr)
        return;
    Domain *owner = nullptr;
    const char *what = nullptr;
    {
        std::lock_guard<std::mutex> lk(ownMutex);
        auto it = ownSpans.upper_bound(obj);
        for (int step = 0; step < 16 && it != ownSpans.begin();
             ++step) {
            --it;
            const char *begin =
                static_cast<const char *>(it->first);
            if (static_cast<const char *>(obj) <
                begin + it->second.bytes) {
                owner = it->second.owner;
                what = it->second.what;
                break;
            }
        }
    }
    if (owner == nullptr || owner == cur)
        return;
    // A rig whose domain never joined an engine (the replicated-WAL
    // follower) is driven by direct calls from the adjacent domain by
    // design; a domain on a different engine cannot share this
    // engine's threads.
    if (owner->engine() == nullptr || owner->engine() != cur->engine())
        return;
    panic("domain-ownership violation: thread executing domain '",
          cur->name(), "' touched '", what, "' owned by domain '",
          owner->name(), "'");
}

#endif // BSSD_DOMAIN_CHECK

ParallelEngine::ParallelEngine(unsigned threads)
    : threads_(threads == 0 ? 1 : threads)
{}

ParallelEngine::~ParallelEngine()
{
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            stop_ = true;
        }
        roundStart_.notify_all();
        for (std::thread &w : workers_)
            w.join();
    }
}

std::uint32_t
ParallelEngine::add(Domain &d)
{
    if (d.engine_ != nullptr)
        panic("domain '", d.name(), "' already attached to an engine");
    const auto id = static_cast<std::uint32_t>(domains_.size());
    d.engine_ = this;
    d.id_ = id;
    domains_.push_back(&d);
    for (std::vector<Tick> &row : look_)
        row.push_back(maxTick);
    look_.emplace_back(domains_.size(), maxTick);
    minInLook_.push_back(maxTick);
    next_.push_back(maxTick);
    windows_.push_back(0);
    perFired_.push_back(0);
    errors_.emplace_back();
    domFired_.push_back(0);
    stallTicks_.push_back(0);
    for (std::vector<std::uint64_t> &row : boundBy_)
        row.push_back(0);
    boundBy_.emplace_back(domains_.size(), 0);
    boundByHorizon_.push_back(0);
    return id;
}

void
ParallelEngine::connect(Domain &src, Domain &dst, Tick lookahead)
{
    if (src.engine_ != this || dst.engine_ != this)
        panic("connect: both domains must be registered first");
    if (&src == &dst)
        panic("connect: a domain does not post to itself");
    if (lookahead == 0)
        panic("connect: zero lookahead would stall the engine");
    look_[src.id_][dst.id_] = lookahead;
    minInLook_[dst.id_] = std::min(minInLook_[dst.id_], lookahead);
}

Tick
ParallelEngine::lookahead(std::uint32_t src, std::uint32_t dst) const
{
    if (src >= look_.size() || dst >= look_.size())
        return maxTick;
    return look_[src][dst];
}

void
Domain::post(Domain &target, Tick when, TraceContext ctx,
             EventQueue::Callback cb)
{
    if (engine_ == nullptr || target.engine_ != engine_)
        panic("post from '", name_, "' to '", target.name_,
              "': both domains must share an engine");
    const Tick look = engine_->lookahead(id_, target.id_);
    if (look == maxTick)
        panic("post from '", name_, "' to '", target.name_,
              "': no channel (ParallelEngine::connect missing)");
    if (when < queue_.now() || when - queue_.now() < look)
        panic("post from '", name_, "' to '", target.name_,
              "' at ", when, " violates lookahead ", look, " (now ",
              queue_.now(), ")");
    if (ctx.trace != 0) {
        // Wrap the callback so the request identity is in scope in the
        // TARGET domain while it runs: spans the callback records there
        // stitch to the sender's span tree. The tracer pointer is read
        // at delivery time (inside the target's window), honoring the
        // domain-ownership rule.
        Domain *tgt = &target;
        cb = [tgt, ctx, inner = std::move(cb)]() mutable {
            Tracer *tr = tgt->tracer_;
            if (tr)
                tr->pushContext(ctx);
            inner();
            if (tr)
                tr->popContext();
        };
    }
    outbox_.push_back(Message{when, nextSeq_++, target.id_,
                              std::move(cb)});
}

void
ParallelEngine::deliverOutboxes()
{
    mailbag_.clear();
    for (Domain *d : domains_) {
        for (Domain::Message &m : d->outbox_) {
            mailbag_.push_back(Routed{m.when, d->id_, m.seq, m.target,
                                      std::move(m.cb)});
        }
        d->outbox_.clear();
    }
    if (mailbag_.empty())
        return;
    std::sort(mailbag_.begin(), mailbag_.end(),
              [](const Routed &a, const Routed &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.sender != b.sender)
                      return a.sender < b.sender;
                  return a.seq < b.seq;
              });
    for (Routed &m : mailbag_)
        domains_[m.target]->queue_.schedule(m.when, std::move(m.cb));
    delivered_ += mailbag_.size();
    mailbag_.clear();
}

Tick
ParallelEngine::windowFor(std::size_t d, Tick until) const
{
    // Events AT the horizon must fire, and runWindow's bound is
    // strict, so the cap is one past the horizon.
    Tick w = satAdd(until, 1);
    windowBoundBy_ = kNoBound;
    for (std::size_t s = 0; s < domains_.size(); ++s) {
        if (s == d || look_[s][d] == maxTick)
            continue;
        const Tick bound = satAdd(next_[s], look_[s][d]);
        if (bound < w) {
            w = bound;
            windowBoundBy_ = static_cast<std::uint32_t>(s);
        }
    }
    return w;
}

void
ParallelEngine::executeDomain(std::size_t d)
{
    try {
#ifdef BSSD_DOMAIN_CHECK
        // Mark this thread as executing d's window for the ownership
        // guards; restored on every exit path (including the panic a
        // guard throws, which unwinds through here into errors_[d]).
        struct Scope
        {
            Domain *prev;
            explicit Scope(Domain *dom) : prev(tlsCurrentDomain)
            {
                tlsCurrentDomain = dom;
            }
            ~Scope() { tlsCurrentDomain = prev; }
        } scope(domains_[d]);
#endif
        perFired_[d] = domains_[d]->queue_.runWindow(windows_[d]);
    } catch (...) {
        perFired_[d] = 0;
        errors_[d] = std::current_exception();
    }
}

void
ParallelEngine::startWorkers()
{
    // A thread past the domain count would own no domain yet still
    // hold up every barrier, so the pool is never wider than that.
    threads_ = static_cast<unsigned>(
        std::min<std::size_t>(threads_, domains_.size()));
    const unsigned spawn = threads_ - 1;
    workers_.reserve(spawn);
    for (unsigned w = 1; w <= spawn; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

void
ParallelEngine::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        roundStart_.wait(lk, [&] { return stop_ || roundGen_ != seen; });
        if (stop_)
            return;
        seen = roundGen_;
        lk.unlock();
        for (std::size_t d = self; d < domains_.size(); d += threads_)
            executeDomain(d);
        lk.lock();
        if (--busy_ == 0)
            roundDone_.notify_all();
    }
}

void
ParallelEngine::runRound()
{
    const bool parallel = threads_ > 1 && domains_.size() > 1;
    if (!parallel) {
        // Identical window schedule, inline, in domain-id order: this
        // is what makes threaded runs bit-identical to serial ones.
        for (std::size_t d = 0; d < domains_.size(); ++d)
            executeDomain(d);
    } else {
        if (workers_.empty())
            startWorkers();
        {
            std::lock_guard<std::mutex> lk(mutex_);
            busy_ = threads_ - 1;
            ++roundGen_;
        }
        roundStart_.notify_all();
        for (std::size_t d = 0; d < domains_.size(); d += threads_)
            executeDomain(d);
        std::unique_lock<std::mutex> lk(mutex_);
        roundDone_.wait(lk, [&] { return busy_ == 0; });
    }
    ++rounds_;
    for (std::size_t d = 0; d < domains_.size(); ++d) {
        fired_ += perFired_[d];
        domFired_[d] += perFired_[d];
        // The whole round completes before the first (by id) failure
        // propagates — the same behavior at every thread count.
        if (errors_[d]) {
            std::exception_ptr e = errors_[d];
            std::fill(errors_.begin(), errors_.end(),
                      std::exception_ptr{});
            std::rethrow_exception(e);
        }
    }
}

std::uint64_t
ParallelEngine::run(Tick until)
{
    if (domains_.empty())
        panic("ParallelEngine::run with no domains");
    const std::uint64_t before = fired_;
    for (;;) {
        deliverOutboxes();
        Tick globalMin = maxTick;
        for (std::size_t d = 0; d < domains_.size(); ++d) {
            next_[d] = domains_[d]->queue_.nextEventTime();
            globalMin = std::min(globalMin, next_[d]);
        }
        if (globalMin > until)
            break;
        // Lower next_[d] to the earliest-output-time bound: an idle
        // domain can still be woken by feedback, but no causal chain
        // starts before globalMin and reaching d costs at least its
        // cheapest inbound lookahead.
        for (std::size_t d = 0; d < domains_.size(); ++d) {
            next_[d] = std::min(next_[d],
                                satAdd(globalMin, minInLook_[d]));
        }
        Tick roundMax = 0;
        for (std::size_t d = 0; d < domains_.size(); ++d) {
            windows_[d] = windowFor(d, until);
            if (windowBoundBy_ == kNoBound)
                ++boundByHorizon_[d];
            else
                ++boundBy_[d][windowBoundBy_];
            roundMax = std::max(roundMax, windows_[d]);
        }
        // Telemetry over the schedule (identical at any thread
        // count): window width is the work a round exposes to each
        // domain, the stall is how far short of the round's widest
        // window it stops — the barrier wait in simulated ticks.
        for (std::size_t d = 0; d < domains_.size(); ++d) {
            windowWidth_.record(windows_[d] - globalMin);
            stallTicks_[d] += roundMax - windows_[d];
        }
        if (roundTracer_ != nullptr && roundTracer_->enabled()) {
            roundTracer_->recordSpan("engine", "round", globalMin,
                                     roundMax, TraceContext{});
        }
        runRound();
    }
    for (Domain *d : domains_) {
        if (until > d->queue_.now())
            d->queue_.advanceTo(until);
    }
    now_ = until;
    return fired_ - before;
}

std::uint64_t
ParallelEngine::domainEventsFired(std::uint32_t d) const
{
    return domFired_.at(d);
}

std::uint64_t
ParallelEngine::stallTicks(std::uint32_t d) const
{
    return stallTicks_.at(d);
}

std::uint64_t
ParallelEngine::horizonBoundRounds(std::uint32_t d) const
{
    return boundByHorizon_.at(d);
}

std::uint64_t
ParallelEngine::channelBoundRounds(std::uint32_t d,
                                   std::uint32_t src) const
{
    return boundBy_.at(d).at(src);
}

namespace
{

/** Lowercase a domain name into one metric-path segment. */
std::string
metricSegment(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c >= 'A' && c <= 'Z')
            out += static_cast<char>(c - 'A' + 'a');
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            out += c;
        else
            out += '_';
    }
    if (out.empty() || out.front() == '_')
        out.insert(out.begin(), 'd');
    return out;
}

} // namespace

void
ParallelEngine::registerMetrics(MetricRegistry &reg,
                                const std::string &prefix) const
{
    reg.addGauge(prefix + ".rounds", [this] {
        return static_cast<double>(rounds_);
    });
    reg.addGauge(prefix + ".messages", [this] {
        return static_cast<double>(delivered_);
    });
    // bssd-lint: allow(xcheck-metric-path) engine total vs per-domain
    reg.addGauge(prefix + ".events", [this] {
        return static_cast<double>(fired_);
    });
    reg.addHistogram(prefix + ".window_width", windowWidth_);
    for (std::uint32_t d = 0; d < domains_.size(); ++d) {
        const std::string dp =
            prefix + "." + metricSegment(domains_[d]->name());
        // bssd-lint: allow(xcheck-metric-path) per-domain vs engine total
        reg.addGauge(dp + ".events", [this, d] {
            return static_cast<double>(domFired_[d]);
        });
        reg.addGauge(dp + ".stall_ticks", [this, d] {
            return static_cast<double>(stallTicks_[d]);
        });
        reg.addGauge(dp + ".bound_horizon", [this, d] {
            return static_cast<double>(boundByHorizon_[d]);
        });
        for (std::uint32_t s = 0; s < domains_.size(); ++s) {
            if (s == d || look_[s][d] == maxTick)
                continue;
            reg.addGauge(dp + ".bound_from_" +
                             metricSegment(domains_[s]->name()),
                         [this, d, s] {
                             return static_cast<double>(boundBy_[d][s]);
                         });
        }
    }
}

} // namespace bssd::sim

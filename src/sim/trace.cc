#include "sim/trace.hh"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "sim/logging.hh"
// Compiles the span vocabulary's static_asserts into every build.
#include "sim/span_names.hh"

namespace bssd::sim
{

std::uint32_t
Tracer::intern(const char *s)
{
    auto it = internIds_.find(s);
    if (it != internIds_.end())
        return it->second;
    auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    internIds_.emplace(strings_.back(), id);
    return id;
}

const std::string &
Tracer::string(std::uint32_t id) const
{
    if (id >= strings_.size())
        panic("Tracer::string: unknown interned id ", id);
    return strings_[id];
}

SpanId
Tracer::beginSpan(const char *cat, const char *name, Tick start)
{
    if (!enabled_)
        return 0;
    Event e;
    e.kind = Event::Kind::span;
    e.cat = intern(cat);
    e.name = intern(name);
    e.parent = stack_.empty() ? 0 : stack_.back();
    e.gid = mintGid();
    // Request identity: nested spans inherit it from their local
    // parent; top-level spans adopt the pushed context (a routed op
    // executing in this domain) and link across tracers via xparent.
    if (e.parent != 0)
        e.trace = events_[e.parent - 1].trace;
    if (e.trace == 0 && !ctxStack_.empty()) {
        e.trace = ctxStack_.back().trace;
        if (e.parent == 0)
            e.xparent = ctxStack_.back().parent;
    }
    e.start = start;
    e.end = start;
    e.id = static_cast<SpanId>(events_.size() + 1);
    events_.push_back(e);
    stack_.push_back(e.id);
    return e.id;
}

std::uint64_t
Tracer::recordSpan(const char *cat, const char *name, Tick start,
                   Tick end, TraceContext ctx, std::uint64_t gid)
{
    if (!enabled_)
        return 0;
    Event e;
    e.kind = Event::Kind::span;
    e.cat = intern(cat);
    e.name = intern(name);
    e.gid = gid != 0 ? gid : mintGid();
    e.trace = ctx.trace;
    e.xparent = ctx.parent;
    e.start = start;
    e.end = end;
    e.id = static_cast<SpanId>(events_.size() + 1);
    events_.push_back(e);
    return e.gid;
}

void
Tracer::endSpan(SpanId id, Tick end)
{
    if (id == 0 || !enabled_)
        return;
    if (id > events_.size() ||
        events_[id - 1].kind != Event::Kind::span) {
        panic("Tracer::endSpan: unknown span id ", id);
    }
    events_[id - 1].end = end;
    // Pop the span together with anything abandoned above it (a span
    // interrupted by PowerCut never sees its endSpan; closing the
    // enclosing span sweeps it off the stack).
    for (std::size_t i = stack_.size(); i-- > 0;) {
        if (stack_[i] == id) {
            stack_.resize(i);
            break;
        }
    }
}

void
Tracer::phase(const char *name, Tick start, Tick end)
{
    if (!enabled_)
        return;
    Event e;
    e.kind = Event::Kind::phase;
    e.parent = stack_.empty() ? 0 : stack_.back();
    // A phase inherits its component lane from the enclosing span.
    e.cat = e.parent ? events_[e.parent - 1].cat : intern("phase");
    e.name = intern(name);
    e.start = start;
    e.end = end;
    events_.push_back(e);
}

void
Tracer::instant(const char *cat, const char *name, Tick at)
{
    if (!enabled_)
        return;
    Event e;
    e.kind = Event::Kind::instant;
    e.cat = intern(cat);
    e.name = intern(name);
    e.parent = stack_.empty() ? 0 : stack_.back();
    e.start = at;
    e.end = at;
    events_.push_back(e);
}

void
Tracer::clear()
{
    events_.clear();
    stack_.clear();
    ctxStack_.clear();
}

void
Tracer::append(const Tracer &other)
{
    if (!other.stack_.empty())
        panic("Tracer::append: source tracer has live spans");
    // Span ids are minted as (event index + 1), so rebasing them by
    // the current event count preserves that invariant in the merged
    // stream; parent links live in the same id space.
    const auto base = static_cast<SpanId>(events_.size());
    events_.reserve(events_.size() + other.events_.size());
    for (const Event &src : other.events_) {
        Event e = src;
        e.cat = intern(other.strings_[src.cat].c_str());
        e.name = intern(other.strings_[src.name].c_str());
        if (e.id != 0)
            e.id += base;
        if (e.parent != 0)
            e.parent += base;
        // trace/gid/xparent are global (gids carry their stream in the
        // top 32 bits), so they merge verbatim — cross-tracer parent
        // links keep resolving after the merge.
        events_.push_back(e);
    }
}

namespace
{

/**
 * Exact tick-to-microsecond decimal string (ticks are nanoseconds).
 * Printed from integers, never through floating point, so the text is
 * reproducible byte for byte.
 */
std::string
usString(Tick ticks)
{
    constexpr Tick ticksPerUs = usOf(1);
    const Tick whole = ticks / ticksPerUs;
    const unsigned frac =
        static_cast<unsigned>(ticks % ticksPerUs);
    std::string out = std::to_string(whole);
    out += '.';
    out += static_cast<char>('0' + frac / 100);
    out += static_cast<char>('0' + frac / 10 % 10);
    out += static_cast<char>('0' + frac % 10);
    return out;
}

} // namespace

void
Tracer::writeChromeJson(std::ostream &os) const
{
    // Stable order by start tick: Perfetto and trace_dump --validate
    // both expect non-decreasing ts, and stability keeps the file a
    // pure function of the recorded event sequence.
    std::vector<std::uint32_t> order(events_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return events_[a].start < events_[b].start;
                     });

    os << "{\"traceEvents\": [\n";
    bool first = true;

    // One named lane per category keeps unrelated components from
    // stacking into one another in the Perfetto UI.
    std::vector<bool> catSeen(strings_.size(), false);
    for (const Event &e : events_)
        catSeen[e.cat] = true;
    for (std::uint32_t c = 0; c < catSeen.size(); ++c) {
        if (!catSeen[c])
            continue;
        os << (first ? "" : ",\n") << "  {\"name\": \"thread_name\", "
           << "\"ph\": \"M\", \"pid\": 1, \"tid\": " << c + 1
           << ", \"args\": {\"name\": \"" << strings_[c] << "\"}}";
        first = false;
    }

    for (std::uint32_t idx : order) {
        const Event &e = events_[idx];
        os << (first ? "" : ",\n") << "  {\"name\": \""
           << strings_[e.name] << "\", \"cat\": \"" << strings_[e.cat]
           << "\", ";
        if (e.kind == Event::Kind::instant) {
            os << "\"ph\": \"i\", \"s\": \"t\", \"ts\": "
               << usString(e.start);
        } else {
            os << "\"ph\": \"X\", \"ts\": " << usString(e.start)
               << ", \"dur\": " << usString(e.end - e.start);
        }
        os << ", \"pid\": 1, \"tid\": " << e.cat + 1
           << ", \"args\": {\"start_ticks\": " << e.start
           << ", \"end_ticks\": " << e.end << ", \"kind\": \""
           << (e.kind == Event::Kind::span
                   ? "span"
                   : e.kind == Event::Kind::phase ? "phase" : "instant")
           << "\", \"id\": " << e.id << ", \"parent\": " << e.parent;
        // Request-stitching fields only when set (phases and instants
        // carry none; spans outside any request carry only their gid).
        if (e.trace != 0)
            os << ", \"trace\": " << e.trace;
        if (e.gid != 0)
            os << ", \"gid\": " << e.gid;
        if (e.xparent != 0)
            os << ", \"xparent\": " << e.xparent;
        os << "}}";
        first = false;
    }
    os << "\n], \"displayTimeUnit\": \"ns\"}\n";
}

std::vector<Tracer::PhaseStat>
Tracer::phaseBreakdown() const
{
    std::map<std::pair<std::string, std::string>,
             std::vector<std::uint64_t>>
        durations;
    for (const Event &e : events_) {
        if (e.kind != Event::Kind::phase)
            continue;
        durations[{strings_[e.cat], strings_[e.name]}].push_back(
            e.end - e.start);
    }

    std::vector<PhaseStat> out;
    out.reserve(durations.size());
    for (auto &[key, ds] : durations) {
        std::sort(ds.begin(), ds.end());
        PhaseStat ps;
        ps.cat = key.first;
        ps.name = key.second;
        ps.count = ds.size();
        ps.totalTicks = std::accumulate(ds.begin(), ds.end(),
                                        std::uint64_t{0});
        ps.minTicks = ds.front();
        ps.maxTicks = ds.back();
        auto rank = [&](double p) {
            auto idx = static_cast<std::size_t>(
                p / 100.0 * static_cast<double>(ds.size() - 1) + 0.5);
            return ds[std::min(idx, ds.size() - 1)];
        };
        ps.p50 = rank(50.0);
        ps.p99 = rank(99.0);
        out.push_back(std::move(ps));
    }
    return out;
}

} // namespace bssd::sim

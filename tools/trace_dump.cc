/**
 * @file
 * Trace inspection CLI for the Chrome trace_event JSON files emitted
 * by sim::Tracer::writeChromeJson() (DESIGN.md section 9).
 *
 * Modes:
 *   trace_dump FILE                      list events (after filters)
 *   trace_dump --breakdown FILE          per-phase latency table
 *   trace_dump --validate FILE           schema + invariant check
 *
 * Filters (compose, apply to listing and breakdown):
 *   --cat=ssd          only events of one category lane
 *   --name=blockWrite  only events with this name
 *   --from-us=N        only events starting at or after N us
 *   --to-us=N          only events starting before N us
 *   --request=N        only the span tree of request (trace id) N:
 *                      its spans plus their phases and instants
 *
 * --validate asserts what every consumer of these traces relies on:
 * the JSON parses, every event is one of ph "X"/"i"/"M", ts is
 * non-decreasing in file order, durations are non-negative, every
 * span's phases partition it - per-phase tick sums reconcile with the
 * span's end-to-end duration within one tick - and the request
 * stitching is sound: span gids are unique, every xparent resolves to
 * a span carrying the same trace id, local parent links never cross
 * trace ids, and no trace has more than one root span. Exit status 1
 * on any violation (CI runs this against a freshly generated trace),
 * 2 when a numeric filter is not wholly a number in range.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "trace_json.hh"

namespace
{

using bssd::tools::TraceEvent;

/** Ticks are unsigned nanoseconds, so no event starts past this. */
constexpr double kMaxUs = 18446744073709551615.0 / 1000.0;

struct Options
{
    std::string file;
    bool validate = false;
    bool breakdown = false;
    std::string cat;
    std::string name;
    double fromUs = -1.0;
    double toUs = -1.0;
    std::uint64_t request = 0;
};

bool
matches(const TraceEvent &e, const Options &opt)
{
    if (!opt.cat.empty() && e.cat != opt.cat)
        return false;
    if (!opt.name.empty() && e.name != opt.name)
        return false;
    if (opt.fromUs >= 0.0 && e.tsUs < opt.fromUs)
        return false;
    if (opt.toUs >= 0.0 && e.tsUs >= opt.toUs)
        return false;
    return true;
}

int
fail(const std::string &why)
{
    std::fprintf(stderr, "trace_dump: %s\n", why.c_str());
    return 1;
}

/**
 * Keep only the span tree of one request: spans whose trace id is
 * opt.request, plus phases and instants whose nearest span ancestor
 * (via local parent links) is one of them.
 */
void
filterRequest(std::vector<TraceEvent> &events, std::uint64_t request)
{
    std::map<std::uint64_t, std::uint64_t> traceOf; // local id -> trace
    for (const auto &e : events) {
        if (e.kind == "span" && e.id != 0)
            traceOf[e.id] = e.trace;
    }
    std::vector<TraceEvent> kept;
    for (auto &e : events) {
        std::uint64_t trace = e.trace;
        if (e.kind != "span" && e.parent != 0) {
            auto it = traceOf.find(e.parent);
            if (it != traceOf.end())
                trace = it->second;
        }
        if (trace == request)
            kept.push_back(std::move(e));
    }
    events = std::move(kept);
}

/**
 * The reconciliation invariant: for every span that has phases, the
 * phase tick-durations sum to the span's end-to-end tick duration
 * within one tick (the instrumented layers emit phases that partition
 * their span).
 */
int
checkReconciliation(const std::vector<TraceEvent> &events)
{
    std::map<std::uint64_t, const TraceEvent *> spans;
    std::map<std::uint64_t, std::uint64_t> phaseSum;
    for (const auto &e : events) {
        if (e.kind == "span")
            spans[e.id] = &e;
        else if (e.kind == "phase" && e.parent != 0)
            phaseSum[e.parent] += e.endTicks - e.startTicks;
    }

    std::size_t checked = 0;
    for (const auto &[id, sum] : phaseSum) {
        auto it = spans.find(id);
        if (it == spans.end())
            return fail("phase references unknown span id " +
                        std::to_string(id));
        const TraceEvent &s = *it->second;
        std::uint64_t spanTicks = s.endTicks - s.startTicks;
        std::uint64_t diff = spanTicks > sum ? spanTicks - sum
                                             : sum - spanTicks;
        if (diff > 1) {
            return fail("span " + std::to_string(id) + " (" + s.cat +
                        "." + s.name + "): phases sum to " +
                        std::to_string(sum) + " ticks but span is " +
                        std::to_string(spanTicks) + " ticks");
        }
        ++checked;
    }
    std::printf("reconciled %zu spans against their phases "
                "(<= 1 tick)\n",
                checked);
    return 0;
}

/**
 * Background-GC invariant: every non-empty ftl.gc_step span is
 * partitioned by "relocate" / "erase" phases and nothing else - a
 * step that consumed die time but reported no phase (or an unknown
 * one) means the engine's instrumentation drifted from its timing.
 * The generic reconciliation above already checks the sums; this
 * checks presence and vocabulary.
 */
int
checkGcSteps(const std::vector<TraceEvent> &events)
{
    std::map<std::uint64_t, const TraceEvent *> steps;
    std::map<std::uint64_t, std::size_t> stepPhases;
    for (const auto &e : events) {
        if (e.kind == "span" && e.cat == "ftl" && e.name == "gc_step")
            steps[e.id] = &e;
    }
    for (const auto &e : events) {
        if (e.kind != "phase" || !steps.contains(e.parent))
            continue;
        if (e.name != "relocate" && e.name != "erase") {
            return fail("gc_step span " + std::to_string(e.parent) +
                        " has unexpected phase \"" + e.name + "\"");
        }
        ++stepPhases[e.parent];
    }
    for (const auto &[id, s] : steps) {
        if (s->endTicks > s->startTicks && !stepPhases.contains(id)) {
            return fail("gc_step span " + std::to_string(id) +
                        " consumed ticks but recorded no "
                        "relocate/erase phase");
        }
    }
    if (!steps.empty()) {
        std::printf("validated %zu gc_step spans "
                    "(relocate/erase phase coverage)\n",
                    steps.size());
    }
    return 0;
}

/**
 * Request-stitching invariants (the contract critical_path and every
 * distributed-trace viewer rely on): span gids are unique; every
 * xparent resolves by gid to a span carrying the same trace id; a
 * local parent link never crosses trace ids; and each trace has at
 * most one root span (trace set, no local parent, no xparent).
 */
int
checkTraceContexts(const std::vector<TraceEvent> &events)
{
    std::map<std::uint64_t, const TraceEvent *> byGid;
    std::map<std::uint64_t, const TraceEvent *> byId;
    std::size_t stitched = 0;
    for (const auto &e : events) {
        if (e.kind != "span")
            continue;
        if (e.gid != 0 && !byGid.emplace(e.gid, &e).second)
            return fail("duplicate span gid " + std::to_string(e.gid));
        if (e.id != 0)
            byId[e.id] = &e;
    }
    std::map<std::uint64_t, std::size_t> roots;
    for (const auto &e : events) {
        if (e.kind != "span")
            continue;
        if (e.xparent != 0) {
            auto it = byGid.find(e.xparent);
            if (it == byGid.end())
                return fail("span gid " + std::to_string(e.gid) +
                            " has unresolved xparent " +
                            std::to_string(e.xparent));
            if (it->second->trace != e.trace)
                return fail("span gid " + std::to_string(e.gid) +
                            " stitches across trace ids " +
                            std::to_string(e.trace) + " vs " +
                            std::to_string(it->second->trace));
            ++stitched;
        }
        if (e.parent != 0 && e.trace != 0) {
            auto it = byId.find(e.parent);
            if (it != byId.end() && it->second->trace != 0 &&
                it->second->trace != e.trace)
                return fail("span id " + std::to_string(e.id) +
                            " trace " + std::to_string(e.trace) +
                            " nested under trace " +
                            std::to_string(it->second->trace));
        }
        if (e.trace != 0 && e.parent == 0 && e.xparent == 0)
            ++roots[e.trace];
    }
    for (const auto &[trace, n] : roots) {
        if (n > 1)
            return fail("trace " + std::to_string(trace) + " has " +
                        std::to_string(n) + " root spans");
    }
    std::printf("validated %zu request trees (%zu cross-domain "
                "links stitched)\n",
                roots.size(), stitched);
    return 0;
}

void
printBreakdown(const std::vector<TraceEvent> &events,
               const Options &opt)
{
    std::map<std::pair<std::string, std::string>,
             std::vector<std::uint64_t>>
        durations;
    for (const auto &e : events) {
        if (e.kind != "phase" || !matches(e, opt))
            continue;
        durations[{e.cat, e.name}].push_back(e.endTicks - e.startTicks);
    }

    std::printf("%-8s %-12s %6s %10s %10s %10s %10s\n", "cat", "phase",
                "count", "mean(us)", "p50(us)", "p99(us)", "max(us)");
    for (auto &[key, ds] : durations) {
        std::sort(ds.begin(), ds.end());
        std::uint64_t total = 0;
        for (std::uint64_t d : ds)
            total += d;
        auto rank = [&](double p) {
            auto idx = static_cast<std::size_t>(
                p / 100.0 * static_cast<double>(ds.size() - 1) + 0.5);
            return ds[std::min(idx, ds.size() - 1)];
        };
        std::printf("%-8s %-12s %6zu %10.3f %10.3f %10.3f %10.3f\n",
                    key.first.c_str(), key.second.c_str(), ds.size(),
                    static_cast<double>(total) /
                        static_cast<double>(ds.size()) / 1000.0,
                    static_cast<double>(rank(50.0)) / 1000.0,
                    static_cast<double>(rank(99.0)) / 1000.0,
                    static_cast<double>(ds.back()) / 1000.0);
    }
}

void
printListing(const std::vector<TraceEvent> &events, const Options &opt)
{
    std::printf("%-12s %-10s %-8s %-8s %-14s %6s %6s %8s\n", "ts(us)",
                "dur(us)", "kind", "cat", "name", "id", "parent",
                "trace");
    std::size_t shown = 0;
    for (const auto &e : events) {
        if (!matches(e, opt))
            continue;
        std::printf("%-12.3f %-10.3f %-8s %-8s %-14s %6llu %6llu "
                    "%8llu\n",
                    e.tsUs, e.durUs, e.kind.c_str(), e.cat.c_str(),
                    e.name.c_str(),
                    static_cast<unsigned long long>(e.id),
                    static_cast<unsigned long long>(e.parent),
                    static_cast<unsigned long long>(e.trace));
        ++shown;
    }
    std::printf("%zu of %zu events shown\n", shown, events.size());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *flag) -> const char * {
            std::size_t n = std::strlen(flag);
            if (a.compare(0, n, flag) == 0 && a[n] == '=')
                return a.c_str() + n + 1;
            return nullptr;
        };
        if (a == "--validate") {
            opt.validate = true;
        } else if (a == "--breakdown") {
            opt.breakdown = true;
        } else if (const char *v = val("--cat")) {
            opt.cat = v;
        } else if (const char *v = val("--name")) {
            opt.name = v;
        } else if (const char *v = val("--from-us")) {
            opt.fromUs = bssd::bench::decimalValue("--from-us", v, kMaxUs);
        } else if (const char *v = val("--to-us")) {
            opt.toUs = bssd::bench::decimalValue("--to-us", v, kMaxUs);
        } else if (const char *v = val("--request")) {
            opt.request =
                bssd::bench::unsignedValue("--request", v, 1, UINT64_MAX);
        } else if (!a.empty() && a[0] != '-') {
            opt.file = a;
        } else {
            return fail("unknown option " + a +
                        " (see the header comment for usage)");
        }
    }
    if (opt.file.empty())
        return fail("usage: trace_dump [--validate] [--breakdown] "
                    "[--cat=C] [--name=N] [--from-us=T] [--to-us=T] "
                    "[--request=ID] FILE");

    std::vector<TraceEvent> events;
    if (std::string err =
            bssd::tools::loadTraceFile(opt.file, opt.validate, events);
        !err.empty())
        return fail(err);

    if (opt.request != 0)
        filterRequest(events, opt.request);

    if (opt.validate) {
        if (int rc = checkReconciliation(events))
            return rc;
        if (int rc = checkGcSteps(events))
            return rc;
        if (int rc = checkTraceContexts(events))
            return rc;
        std::printf("OK: %zu events valid\n", events.size());
        return 0;
    }
    if (opt.breakdown) {
        printBreakdown(events, opt);
        return 0;
    }
    printListing(events, opt);
    return 0;
}

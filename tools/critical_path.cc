/**
 * @file
 * Critical-path bottleneck analyzer for stitched request traces
 * (DESIGN.md section 14).
 *
 * Ingests a Chrome trace_event file written by
 * sim::Tracer::writeChromeJson(), rebuilds the per-request span tree
 * from the stitching fields (trace / gid / xparent plus local parent
 * links), and charges every tick of each request's end-to-end latency
 * to exactly one layer: the deepest span covering that instant wins,
 * and the uncovered remainder of a span is blamed on the span's own
 * layer. The output is the aggregate blame-per-layer table (where did
 * the fleet's latency actually go?) and the top-K slowest requests
 * with their individual breakdowns (what should I look at first?).
 *
 * Usage:
 *   critical_path [--top=K] [--json] FILE
 *
 * A --top that is not wholly a number exits 2 with a message naming it.
 *
 * Layers (span category -> blame bucket):
 *   router, cluster        -> router       (host-side queueing, holds)
 *   shard                  -> store        (command execution)
 *   wal (repl.* names)     -> replication  (follower shipping)
 *   wal, ba                -> wal          (commit path)
 *   ssd, ftl, nand, nvme   -> nand         (media)
 *   engine                 -> barrier      (engine rounds; not part
 *                                           of request trees today)
 *   anything else          -> other
 *
 * All arithmetic is integer ticks and every container is ordered, so
 * the output is byte-identical for byte-identical input traces - CI
 * compares two runs (and serial vs threaded engines) with cmp.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "trace_json.hh"

namespace
{

using bssd::tools::TraceEvent;

/** Blame buckets, fixed report order. */
const char *const kLayers[] = {"router", "store", "wal", "replication",
                               "nand",   "barrier", "other"};
constexpr std::size_t kLayerCount =
    sizeof(kLayers) / sizeof(kLayers[0]);

std::size_t
layerOf(const std::string &cat, const std::string &name)
{
    if (cat == "router" || cat == "cluster")
        return 0;
    if (cat == "shard")
        return 1;
    if (cat == "wal")
        return name.rfind("repl.", 0) == 0 ? 3 : 2;
    if (cat == "ba")
        return 2;
    if (cat == "ssd" || cat == "ftl" || cat == "nand" || cat == "nvme")
        return 4;
    if (cat == "engine")
        return 5;
    return 6;
}

/** One span node in a rebuilt request tree. */
struct Node
{
    const TraceEvent *ev = nullptr;
    std::vector<std::size_t> children; // indices into the node pool
};

/** One analyzed request. */
struct Request
{
    std::uint64_t trace = 0;
    std::string op;                    // root span "cat.name"
    std::uint64_t startTicks = 0;
    std::uint64_t durTicks = 0;
    std::uint64_t blame[kLayerCount] = {};
    std::size_t spans = 0;
};

int
fail(const std::string &why)
{
    std::fprintf(stderr, "critical_path: %s\n", why.c_str());
    return 1;
}

/**
 * Charge [clampStart, clampEnd) of @p node's span: segments covered
 * by a child go to that child (recursively, deepest span wins),
 * uncovered gaps go to the node's own layer. Children are visited in
 * (start, gid) order with a sweeping cursor, so overlapping siblings
 * (a completion fired while the next doorbell is in flight) split the
 * timeline deterministically instead of double-counting it.
 */
void
charge(const std::vector<Node> &pool, std::size_t n,
       std::uint64_t clampStart, std::uint64_t clampEnd, Request &req)
{
    const Node &node = pool[n];
    const std::size_t layer =
        layerOf(node.ev->cat, node.ev->name);
    std::uint64_t cursor = clampStart;
    for (std::size_t c : node.children) {
        const TraceEvent &ce = *pool[c].ev;
        std::uint64_t s = std::max(ce.startTicks, cursor);
        std::uint64_t e = std::min(ce.endTicks, clampEnd);
        if (e <= s)
            continue;
        if (s > cursor)
            req.blame[layer] += s - cursor;
        charge(pool, c, s, e, req);
        cursor = e;
    }
    if (clampEnd > cursor)
        req.blame[layer] += clampEnd - cursor;
}

std::string
usString(std::uint64_t ticks)
{
    // Ticks are nanoseconds; print microseconds with three decimals,
    // from integers, so the text never depends on float formatting.
    std::string out = std::to_string(ticks / 1000);
    out += '.';
    out += static_cast<char>('0' + ticks / 100 % 10);
    out += static_cast<char>('0' + ticks / 10 % 10);
    out += static_cast<char>('0' + ticks % 10);
    return out;
}

void
printText(const std::vector<Request> &requests, std::size_t topK)
{
    std::uint64_t total[kLayerCount] = {};
    std::uint64_t grand = 0;
    for (const auto &r : requests) {
        for (std::size_t l = 0; l < kLayerCount; ++l)
            total[l] += r.blame[l];
        grand += r.durTicks;
    }

    std::printf("%zu requests, %s us total request latency\n\n",
                requests.size(), usString(grand).c_str());
    std::printf("blame per layer:\n");
    std::printf("  %-12s %14s %7s\n", "layer", "ticks", "share");
    for (std::size_t l = 0; l < kLayerCount; ++l) {
        if (total[l] == 0)
            continue;
        std::printf("  %-12s %14llu %6llu%%\n", kLayers[l],
                    static_cast<unsigned long long>(total[l]),
                    static_cast<unsigned long long>(
                        grand ? total[l] * 100 / grand : 0));
    }

    std::printf("\ntop %zu slowest requests:\n", topK);
    std::printf("  %-8s %-16s %12s %10s  %s\n", "trace", "op",
                "start(us)", "dur(us)", "blame");
    for (std::size_t i = 0; i < topK && i < requests.size(); ++i) {
        const Request &r = requests[i];
        std::string blame;
        for (std::size_t l = 0; l < kLayerCount; ++l) {
            if (r.blame[l] == 0)
                continue;
            if (!blame.empty())
                blame += " ";
            blame += kLayers[l];
            blame += "=";
            blame += std::to_string(r.blame[l]);
        }
        std::printf("  %-8llu %-16s %12s %10s  %s\n",
                    static_cast<unsigned long long>(r.trace),
                    r.op.c_str(), usString(r.startTicks).c_str(),
                    usString(r.durTicks).c_str(), blame.c_str());
    }
}

void
printJson(const std::vector<Request> &requests, std::size_t topK)
{
    std::ostringstream os;
    std::uint64_t total[kLayerCount] = {};
    std::uint64_t grand = 0;
    std::size_t spans = 0;
    for (const auto &r : requests) {
        for (std::size_t l = 0; l < kLayerCount; ++l)
            total[l] += r.blame[l];
        grand += r.durTicks;
        spans += r.spans;
    }
    os << "{\n  \"requests\": " << requests.size()
       << ",\n  \"spans\": " << spans
       << ",\n  \"total_ticks\": " << grand << ",\n  \"blame\": {";
    bool first = true;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
        os << (first ? "" : ", ") << "\"" << kLayers[l]
           << "\": " << total[l];
        first = false;
    }
    os << "},\n  \"slowest\": [";
    for (std::size_t i = 0; i < topK && i < requests.size(); ++i) {
        const Request &r = requests[i];
        os << (i ? "," : "") << "\n    {\"trace\": " << r.trace
           << ", \"op\": \"" << bssd::tools::jsonEscaped(r.op)
           << "\", \"start_ticks\": " << r.startTicks
           << ", \"dur_ticks\": " << r.durTicks << ", \"blame\": {";
        bool f2 = true;
        for (std::size_t l = 0; l < kLayerCount; ++l) {
            os << (f2 ? "" : ", ") << "\"" << kLayers[l]
               << "\": " << r.blame[l];
            f2 = false;
        }
        os << "}}";
    }
    os << (topK > 0 && !requests.empty() ? "\n  " : "") << "]\n}\n";
    std::fputs(os.str().c_str(), stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string file;
    std::size_t topK = 5;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json") {
            json = true;
        } else if (a.compare(0, 6, "--top=") == 0) {
            topK = static_cast<std::size_t>(bssd::bench::unsignedValue(
                "--top", a.c_str() + 6, 0, SIZE_MAX));
        } else if (!a.empty() && a[0] != '-') {
            file = a;
        } else {
            return fail("unknown option " + a +
                        " (usage: critical_path [--top=K] [--json] "
                        "FILE)");
        }
    }
    if (file.empty())
        return fail("usage: critical_path [--top=K] [--json] FILE");

    std::vector<TraceEvent> events;
    if (std::string err = bssd::tools::loadTraceFile(file, false, events);
        !err.empty())
        return fail(err);

    // Span pool: every span that belongs to a request (trace != 0).
    std::vector<Node> pool;
    std::map<std::uint64_t, std::size_t> byGid;
    std::map<std::uint64_t, std::size_t> byId;
    for (const auto &e : events) {
        if (e.kind != "span" || e.trace == 0)
            continue;
        Node n;
        n.ev = &e;
        pool.push_back(n);
        if (e.gid != 0)
            byGid[e.gid] = pool.size() - 1;
        if (e.id != 0)
            byId[e.id] = pool.size() - 1;
    }

    // Stitch: local parent link first (same tracer), else the
    // cross-domain xparent link by gid.
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const TraceEvent &e = *pool[i].ev;
        if (e.parent != 0 && byId.contains(e.parent)) {
            pool[byId.at(e.parent)].children.push_back(i);
        } else if (e.xparent != 0 && byGid.contains(e.xparent)) {
            pool[byGid.at(e.xparent)].children.push_back(i);
        } else {
            roots.push_back(i);
        }
    }

    // Deterministic traversal: children by (start, gid, id).
    for (Node &n : pool) {
        std::sort(n.children.begin(), n.children.end(),
                  [&](std::size_t a, std::size_t b) {
                      const TraceEvent &ea = *pool[a].ev;
                      const TraceEvent &eb = *pool[b].ev;
                      if (ea.startTicks != eb.startTicks)
                          return ea.startTicks < eb.startTicks;
                      if (ea.gid != eb.gid)
                          return ea.gid < eb.gid;
                      return ea.id < eb.id;
                  });
    }

    std::vector<Request> requests;
    for (std::size_t r : roots) {
        const TraceEvent &e = *pool[r].ev;
        Request req;
        req.trace = e.trace;
        req.op = e.cat + "." + e.name;
        req.startTicks = e.startTicks;
        req.durTicks = e.endTicks - e.startTicks;
        charge(pool, r, e.startTicks, e.endTicks, req);
        // Count the tree's spans (root plus transitive children).
        std::vector<std::size_t> stack{r};
        while (!stack.empty()) {
            std::size_t n = stack.back();
            stack.pop_back();
            ++req.spans;
            for (std::size_t c : pool[n].children)
                stack.push_back(c);
        }
        requests.push_back(req);
    }
    std::sort(requests.begin(), requests.end(),
              [](const Request &a, const Request &b) {
                  if (a.durTicks != b.durTicks)
                      return a.durTicks > b.durTicks;
                  return a.trace < b.trace;
              });

    if (json)
        printJson(requests, topK);
    else
        printText(requests, topK);
    return 0;
}

/**
 * @file
 * Cluster-scale serving bench: the full bssd::cluster stack (sharded
 * miniredis fleets on 2B-SSD rigs behind the parallel engine) driven
 * by open-loop arrival mixes at 1M+ simulated users.
 *
 * Two mixes run over an 8-shard hash-sharded fleet:
 *
 *  - "poisson":     memoryless cycle arrivals, steady state;
 *  - "bursty-move": clustered arrivals (Poisson burst starts, 8
 *                   cycles per burst) with an online range move of a
 *                   quarter of the routing space mid-run — the
 *                   drain/copy/purge/flip sequence executes while
 *                   traffic keeps arriving.
 *
 * Every mix is run at 1, 2 and 8 engine threads and the digests and
 * merged metrics are required to match byte for byte before any
 * number is reported (the determinism gate is part of the bench, not
 * an afterthought). Emits BENCH_cluster.json (see baselines/) with
 * cluster throughput and p50/p99/p99.9 per-op latency.
 *
 * Usage: bench_cluster [--small] [--threads=N] [--queues=N]
 *                      [--qdepth=N] [--out=FILE] [--json=FILE]
 *                      [--trace=FILE]
 *   --small        CI preset: same 8-shard shape, ~3k ops, traced
 *   --threads=N    run every mix at exactly N engine threads (skips
 *                  the 1/2/8 identity sweep; CI runs this at 1, 4
 *                  and 8 and cmp's the --out artifacts)
 *   --queues=N     host NVMe I/O queue pairs per shard (default 1,
 *                  at most 65535)
 *   --qdepth=N     batches each pair admits; 0 = unbounded (default,
 *                  at most 65535)
 *   --out=FILE     deterministic artifact of the run (digests,
 *                  counters, metrics; no wall clock, no thread count)
 *   --json=FILE    BENCH_cluster.json summary (default when neither
 *                  --out nor --json given: BENCH_cluster.json)
 *   --trace=FILE   Chrome trace of the LAST mix's serial run (small
 *                  preset only; feeds trace_dump --validate)
 *
 * A numeric flag that is not a number in range exits 2.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cluster/cluster.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"
#include "support/stopwatch.hh"

using namespace bssd;
using namespace bssd::bench;
using cluster::ClusterConfig;
using cluster::ClusterResult;

namespace
{

struct Mix
{
    const char *name;
    ClusterConfig cfg;
};

/**
 * The 1M+ simulated-user fleet. With keySpace 2M and ~2.1M uniform
 * key draws, the expected distinct-user count is
 * 2M * (1 - e^(-2.1/2)) ~ 1.3M; the bench asserts >= 1M.
 * The GC preset is off: the fleet-scale question here is scheduling,
 * not GC (the --small preset, Cluster.PgGcFleetIsPinned and
 * perfbench's pg-gc workload cover GC-active fleets). Its 128 KiB
 * AOF region would only rewrite more often: a rewrite drops the undo
 * log of the keys changed since the last one and never copies the
 * 2M-key store.
 */
ClusterConfig
fullFleet()
{
    ClusterConfig cfg;
    cfg.shards = 8;
    cfg.gc = false;
    cfg.opsPerCycle = 2048;
    cfg.cycles = 1024;
    cfg.keySpace = 2'000'000;
    cfg.valueBytes = 64;
    // ~82k offered ops/s against a fleet that serves ~125k/s: high
    // utilisation without runaway queueing, so the tail percentiles
    // measure the rigs, not an unbounded backlog.
    cfg.arrival.meanGap = sim::msOf(25);
    return cfg;
}

/** CI preset: same shape, two orders of magnitude fewer ops. */
ClusterConfig
smallFleet()
{
    ClusterConfig cfg;
    cfg.shards = 8;
    cfg.opsPerCycle = 64;
    cfg.cycles = 48;
    cfg.keySpace = 8192;
    cfg.valueBytes = 96;
    return cfg;
}

std::vector<Mix>
makeMixes(bool small)
{
    ClusterConfig base = small ? smallFleet() : fullFleet();

    Mix poisson{"poisson", base};

    Mix bursty{"bursty-move", base};
    bursty.cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
    bursty.cfg.arrival.burstSize = 8;
    bursty.cfg.arrival.burstGap = sim::usOf(20);
    // Same mean offered load as poisson (8 cycles per burst), but
    // arriving as 16k-op spikes that stress the tail.
    if (!small)
        bursty.cfg.arrival.meanGap = sim::msOf(200);
    bursty.cfg.rebalanceAtCycle = base.cycles / 3;
    bursty.cfg.moveBegin256 = 0;
    bursty.cfg.moveEnd256 = 64;
    bursty.cfg.moveTo = base.shards - 1;

    return {poisson, bursty};
}

struct MixRun
{
    const char *name = "";
    ClusterResult res;
    double wallMs = 0.0;
};

MixRun
runMix(const Mix &mix, unsigned threads, sim::Tracer *trace)
{
    ClusterConfig cfg = mix.cfg;
    cfg.engineThreads = threads;
    MixRun run;
    run.name = mix.name;
    Stopwatch sw;
    run.res = cluster::runCluster(cfg, trace);
    run.wallMs = sw.ms();
    return run;
}

double
opsPerSec(const ClusterResult &r)
{
    return r.horizon > 0
               ? static_cast<double>(r.opsCompleted) /
                     sim::toSec(r.horizon)
               : 0.0;
}

/** One summary record (identical bytes for identical runs). */
void
writeRecord(std::ostream &os, const MixRun &run)
{
    const ClusterResult &r = run.res;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"mix\": \"%s\", \"users\": %llu, \"ops\": %llu, "
        "\"ops_per_sec\": %.0f, \"op_p50_us\": %.3f, "
        "\"op_p99_us\": %.3f, \"op_p999_us\": %.3f, "
        "\"rebalances\": %llu, \"moved_keys\": %llu, "
        "\"state_digest\": \"%llx\"}",
        run.name, static_cast<unsigned long long>(r.usersTouched),
        static_cast<unsigned long long>(r.opsCompleted), opsPerSec(r),
        sim::toUs(r.opP50), sim::toUs(r.opP99), sim::toUs(r.opP999),
        static_cast<unsigned long long>(r.rebalances),
        static_cast<unsigned long long>(r.movedKeys),
        static_cast<unsigned long long>(r.stateDigest));
    os << buf;
}

void
writeSummary(std::ostream &os, const std::vector<MixRun> &runs,
             unsigned shards, bool verified)
{
    os << "{\n  \"scenario\": \"cluster-" << shards
       << "shard-bawal\",\n  \"records\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        writeRecord(os, runs[i]);
        os << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"thread_identity_verified\": "
       << (verified ? "true" : "false") << "\n}\n";
}

/**
 * The deterministic artifact: everything a byte-compare between a
 * serial and a threaded run should see — per-mix digests, counters,
 * latency percentiles and the full merged metrics snapshot. No wall
 * clock, no thread count.
 */
void
writeArtifact(std::ostream &os, const std::vector<MixRun> &runs)
{
    os << "{\n  \"mixes\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const ClusterResult &r = runs[i].res;
        os << "  {\n    \"mix\": \"" << runs[i].name << "\",\n";
        os << "    \"state_digest\": \"" << std::hex << r.stateDigest
           << std::dec << "\",\n";
        os << "    \"ops_routed\": " << r.opsRouted
           << ",\n    \"ops_completed\": " << r.opsCompleted
           << ",\n    \"users\": " << r.usersTouched
           << ",\n    \"events_fired\": " << r.eventsFired
           << ",\n    \"rounds\": " << r.rounds
           << ",\n    \"messages\": " << r.messages
           << ",\n    \"horizon\": " << r.horizon
           << ",\n    \"op_p50_ticks\": " << r.opP50
           << ",\n    \"op_p99_ticks\": " << r.opP99
           << ",\n    \"op_p999_ticks\": " << r.opP999
           << ",\n    \"rebalances\": " << r.rebalances
           << ",\n    \"moved_keys\": " << r.movedKeys << ",\n";
        os << "    \"metrics\": " << r.metricsJson << ",\n";
        os << "    \"slo_series\": " << r.sloSeriesJson << "\n  }";
        os << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

void
printRow(const MixRun &run)
{
    const ClusterResult &r = run.res;
    std::printf("%-12s %9llu %9llu %12.0f %9.1f %9.1f %9.1f %7llu "
                "%9.1f\n",
                run.name,
                static_cast<unsigned long long>(r.usersTouched),
                static_cast<unsigned long long>(r.opsCompleted),
                opsPerSec(r), sim::toUs(r.opP50), sim::toUs(r.opP99),
                sim::toUs(r.opP999),
                static_cast<unsigned long long>(r.movedKeys),
                run.wallMs);
}

} // namespace

int
main(int argc, char **argv)
{
    // The numeric flags come first: a bad one exits 2 before anything
    // is built. Queue pairs and depth are 16-bit in the config.
    constexpr unsigned kMaxQueue = std::numeric_limits<std::uint16_t>::max();
    const std::optional<unsigned> threads = unsignedArg(
        argc, argv, "--threads", std::numeric_limits<unsigned>::max());
    const std::optional<unsigned> queues =
        unsignedArg(argc, argv, "--queues", kMaxQueue);
    const std::optional<unsigned> qdepth =
        unsignedArg(argc, argv, "--qdepth", kMaxQueue);
    bool small = false;
    for (int i = 1; i < argc; ++i)
        small = small || std::string(argv[i]) == "--small";
    const std::string outPath = stringArg(argc, argv, "--out");
    std::string jsonPath = stringArg(argc, argv, "--json");
    const std::string tracePath = stringArg(argc, argv, "--trace");
    if (jsonPath.empty() && outPath.empty())
        jsonPath = "BENCH_cluster.json";

    std::vector<Mix> mixes = makeMixes(small);
    // Multi-queue host frontend: gate each shard's batches behind N
    // bounded queue pairs instead of the unbounded default.
    for (Mix &mix : mixes) {
        if (queues)
            mix.cfg.queuePairs =
                static_cast<std::uint16_t>(std::max(1u, *queues));
        if (qdepth)
            mix.cfg.queueDepth = static_cast<std::uint16_t>(*qdepth);
    }
    banner("cluster", std::string("sharded serving at scale (") +
                          (small ? "small CI preset" : "1M+ users") +
                          ")");

    std::vector<MixRun> runs;
    bool verified = false;

    if (threads) {
        // Pinned thread count: CI runs this at 1, 4 and 8 and
        // byte-compares the artifacts.
        const unsigned n = std::max(1u, *threads);
        section("mixes at " + std::to_string(n) + " engine thread(s)");
        for (const Mix &mix : mixes) {
            sim::Tracer tracer;
            const bool wantTrace = small && !tracePath.empty();
            runs.push_back(
                runMix(mix, n, wantTrace ? &tracer : nullptr));
            printRow(runs.back());
            if (wantTrace) {
                std::ofstream ts(tracePath);
                tracer.writeChromeJson(ts);
            }
        }
    } else {
        // The determinism gate: every mix must produce identical
        // digests and metrics at 1, 2 and 8 engine threads before
        // its numbers are reported.
        section("1/2/8-thread identity sweep");
        for (const Mix &mix : mixes) {
            sim::Tracer tracer;
            const bool wantTrace = small && !tracePath.empty();
            MixRun serial =
                runMix(mix, 1, wantTrace ? &tracer : nullptr);
            for (unsigned n : {2u, 8u}) {
                MixRun t = runMix(mix, n, nullptr);
                if (t.res.stateDigest != serial.res.stateDigest ||
                    t.res.metricsJson != serial.res.metricsJson ||
                    t.res.sloSeriesJson != serial.res.sloSeriesJson ||
                    t.res.horizon != serial.res.horizon) {
                    std::fprintf(stderr,
                                 "FAIL: mix %s diverges at %u engine "
                                 "threads\n",
                                 mix.name, n);
                    return 1;
                }
                std::printf("  %-12s %u threads: digest %llx OK "
                            "(wall %.1f ms)\n",
                            mix.name, n,
                            static_cast<unsigned long long>(
                                t.res.stateDigest),
                            t.wallMs);
            }
            if (wantTrace) {
                std::ofstream ts(tracePath);
                tracer.writeChromeJson(ts);
            }
            runs.push_back(std::move(serial));
        }
        verified = true;
    }

    section("cluster throughput and tail latency");
    std::printf("%-12s %9s %9s %12s %9s %9s %9s %7s %9s\n", "mix",
                "users", "ops", "ops/sec", "p50us", "p99us", "p999us",
                "moved", "wall-ms");
    for (const MixRun &run : runs)
        printRow(run);

    if (!small) {
        for (const MixRun &run : runs) {
            if (run.res.usersTouched < 1'000'000) {
                std::fprintf(stderr,
                             "FAIL: mix %s touched only %llu users "
                             "(need >= 1M)\n",
                             run.name,
                             static_cast<unsigned long long>(
                                 run.res.usersTouched));
                return 1;
            }
        }
    }

    if (!jsonPath.empty()) {
        std::ofstream os(jsonPath);
        writeSummary(os, runs, mixes.front().cfg.shards, verified);
        std::printf("\nwrote %s\n", jsonPath.c_str());
    }
    if (!outPath.empty()) {
        std::ofstream os(outPath);
        writeArtifact(os, runs);
        std::printf("wrote %s\n", outPath.c_str());
    }
    return 0;
}

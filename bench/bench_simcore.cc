/**
 * @file
 * Simulation-kernel self-benchmark: raw event throughput of the slab
 * event pool (absolute events per wall second, three scenarios), plus
 * wall-clock spot checks of two real figure benches.
 *
 * Emits BENCH_simcore.json (see baselines/BENCH_simcore.json for the
 * recorded trajectory) plus BENCH_parallel.json: the parallel-engine
 * scaling curve on the sharded-cluster scenario (events/sec vs
 * --engine-threads, digest-checked bit-identical at every point).
 *
 * Usage: bench_simcore [--engine-threads=N] [--cluster-out=FILE]
 *   --engine-threads=N  run ONLY the cluster scenario at N engine
 *                       threads (skips the kernel sections)
 *   --cluster-out=FILE  write the run's deterministic artifact
 *                       (digest, counters, metrics, trace) to FILE;
 *                       CI cmp's the serial and threaded artifacts
 *                       byte-for-byte
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "support/stopwatch.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "ssd/ssd_device.hh"
#include "wal/ba_wal.hh"
#include "ba/two_b_ssd.hh"
#include "db/minipg/minipg.hh"
#include "cluster/cluster.hh"
#include "workload/fio.hh"
#include "workload/runner.hh"

using namespace bssd;
using namespace bssd::bench;

namespace
{

/**
 * Scenario 1 — timer chains: K concurrent self-rescheduling timers
 * (the shape of destage timers and DMA completion interrupts), run
 * until @p total events have fired.
 */
double
timerChains(std::size_t total)
{
    sim::EventQueue q;
    constexpr std::size_t kChains = 64;
    Stopwatch sw;
    std::uint64_t ticks[kChains] = {};
    std::function<void(std::size_t)> arm = [&](std::size_t c) {
        q.scheduleIn(1 + (c % 7), [&, c] {
            ++ticks[c];
            arm(c);
        });
    };
    for (std::size_t c = 0; c < kChains; ++c)
        arm(c);
    std::size_t fired = q.run(total);
    double ms = sw.ms();
    if (fired != total)
        sim::fatal("timerChains fired ", fired, " != ", total);
    return static_cast<double>(total) / (ms / 1000.0);
}

/**
 * Scenario 2 — schedule/cancel churn: every I/O arms a timeout that
 * is almost always cancelled (the common pattern for watchdogs).
 * Throughput counts scheduled-then-cancelled pairs plus fired events.
 */
double
cancelChurn(std::size_t total)
{
    sim::EventQueue q;
    Stopwatch sw;
    std::size_t done = 0;
    for (std::size_t i = 0; done < total; ++i) {
        auto timeout = q.schedule(q.now() + sim::usOf(1), [] {});
        q.schedule(q.now() + 1, [&done] { ++done; });
        q.deschedule(timeout);
        q.run(1);
        done += 1; // the cancelled pair counts as one unit of work
    }
    double ms = sw.ms();
    return static_cast<double>(total) / (ms / 1000.0);
}

/**
 * Scenario 3 — bursty fan-out: batches of events land at scattered
 * future ticks (GC relocations, power-loss dump), then drain.
 */
double
burstDrain(std::size_t total)
{
    sim::EventQueue q;
    Stopwatch sw;
    std::size_t fired = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    while (fired < total) {
        for (int i = 0; i < 4096; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(q.now() + 1 + (x & 0xffff), [&fired] { ++fired; });
        }
        q.run();
    }
    double ms = sw.ms();
    return static_cast<double>(fired) / (ms / 1000.0);
}

struct Row
{
    const char *name;
    double eps;
};

/**
 * The multi-device scenario for the parallel-engine scaling curve:
 * 8 sharded miniredis-over-BA-WAL rigs with GC active, driven by one
 * host-domain router. Heavy per-shard batches so the barrier cost
 * amortizes over real store/WAL/device work.
 */
cluster::ClusterConfig
clusterScenario(unsigned engineThreads)
{
    cluster::ClusterConfig cfg;
    cfg.shards = 8;
    cfg.wal = cluster::ClusterConfig::Wal::ba;
    cfg.gc = true;
    cfg.engineThreads = engineThreads;
    cfg.opsPerCycle = 512;
    cfg.cycles = 24;
    cfg.keySpace = 2048;
    cfg.valueBytes = 192;
    return cfg;
}

struct ClusterRun
{
    cluster::ClusterResult res;
    std::string chromeJson;
    double wallMs = 0.0;
};

ClusterRun
runClusterAt(unsigned engineThreads)
{
    ClusterRun run;
    sim::Tracer tracer;
    Stopwatch sw;
    run.res = cluster::runCluster(clusterScenario(engineThreads),
                                  &tracer);
    run.wallMs = sw.ms();
    std::ostringstream os;
    tracer.writeChromeJson(os);
    run.chromeJson = os.str();
    return run;
}

/**
 * The deterministic artifact of a cluster run: everything except
 * wall-clock. CI runs this at 1 and 4 engine threads and cmp's the
 * two files byte-for-byte.
 */
void
writeClusterArtifact(std::ostream &os, const ClusterRun &run)
{
    const cluster::ClusterResult &r = run.res;
    os << "{\n  \"scenario\": \"cluster-8shard-bawal-gc\",\n";
    os << "  \"state_digest\": \"" << std::hex << r.stateDigest
       << std::dec << "\",\n";
    os << "  \"ops_routed\": " << r.opsRouted
       << ",\n  \"ops_completed\": " << r.opsCompleted
       << ",\n  \"batches\": " << r.batchesCompleted
       << ",\n  \"events_fired\": " << r.eventsFired
       << ",\n  \"rounds\": " << r.rounds
       << ",\n  \"messages\": " << r.messages
       << ",\n  \"batch_p50_ticks\": " << r.batchP50
       << ",\n  \"batch_p99_ticks\": " << r.batchP99 << ",\n";
    os << "  \"metrics\": " << run.res.metricsJson << ",\n";
    os << "  \"trace\": " << run.chromeJson << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // --engine-threads=N: run only the cluster scenario (the shape CI
    // uses for the byte-identity gate).
    const std::string threadsFlag =
        stringArg(argc, argv, "--engine-threads");
    const std::string clusterOut = stringArg(argc, argv, "--cluster-out");
    if (!threadsFlag.empty()) {
        const unsigned n =
            static_cast<unsigned>(std::stoul(threadsFlag));
        banner("simcore", "cluster scenario at " + threadsFlag +
                              " engine thread(s)");
        ClusterRun run = runClusterAt(n == 0 ? 1 : n);
        std::printf("ops %llu  events %llu  rounds %llu  digest %llx  "
                    "wall %.1f ms\n",
                    static_cast<unsigned long long>(run.res.opsCompleted),
                    static_cast<unsigned long long>(run.res.eventsFired),
                    static_cast<unsigned long long>(run.res.rounds),
                    static_cast<unsigned long long>(run.res.stateDigest),
                    run.wallMs);
        if (!clusterOut.empty()) {
            std::ofstream os(clusterOut);
            writeClusterArtifact(os, run);
            std::printf("wrote %s\n", clusterOut.c_str());
        }
        return 0;
    }

    banner("simcore", "event-kernel throughput of the slab pool");

    constexpr std::size_t kEvents = 2'000'000;
    const Row rows[] = {
        {"timer-chains", timerChains(kEvents)},
        {"cancel-churn", cancelChurn(kEvents)},
        {"burst-drain", burstDrain(kEvents)},
    };

    section("kernel events/sec (2M events per scenario)");
    std::printf("%-14s %14s\n", "scenario", "events/sec");
    for (const Row &r : rows)
        std::printf("%-14s %14.0f\n", r.name, r.eps);

    // Wall-clock spot checks of real figure benches, for the perf
    // trajectory in baselines/BENCH_simcore.json.
    section("figure-bench wall-clock (ms)");
    Stopwatch sw;
    {
        ssd::SsdDevice dev(ssd::SsdConfig::ullSsd());
        workload::FioJob job;
        job.pattern = workload::FioPattern::randRead;
        job.ios = 2048;
        job.regionBytes = 64 * sim::MiB;
        workload::runFio(dev, job);
    }
    double fioMs = sw.ms();
    std::printf("%-28s %10.1f\n", "fig7-style fio 4k randread", fioMs);

    sw.restart();
    {
        ba::TwoBSsd dev;
        wal::BaWal log(dev, {});
        db::minipg::MiniPg pg(log);
        workload::LinkbenchConfig cfg;
        cfg.nodeCount = 10'000;
        workload::runLinkbenchOnPg(pg, cfg, 4, sim::msOf(50), 1);
    }
    double pgMs = sw.ms();
    std::printf("%-28s %10.1f\n", "fig9-style minipg linkbench", pgMs);

    // Parallel-engine scaling: the 8-shard cluster scenario at rising
    // engine thread counts. Digests must match the serial reference at
    // every point — parallelism changes wall-clock, never results.
    section("parallel engine scaling (8-shard cluster, BA-WAL + GC)");
    const unsigned hwCores = std::thread::hardware_concurrency();
    const unsigned threadPoints[] = {1, 2, 4, 8};
    std::vector<ClusterRun> scaling;
    for (unsigned n : threadPoints)
        scaling.push_back(runClusterAt(n));
    const ClusterRun &serial = scaling.front();
    std::printf("%8s %12s %14s %9s %10s\n", "threads", "wall ms",
                "events/sec", "speedup", "identical");
    double speedupAt4 = 0.0;
    for (std::size_t i = 0; i < scaling.size(); ++i) {
        const ClusterRun &r = scaling[i];
        const bool same =
            r.res.stateDigest == serial.res.stateDigest &&
            r.res.metricsJson == serial.res.metricsJson &&
            r.chromeJson == serial.chromeJson;
        if (!same)
            sim::fatal("cluster run at ", threadPoints[i],
                       " threads diverged from serial");
        const double eps = r.wallMs > 0.0
                               ? static_cast<double>(r.res.eventsFired) /
                                     (r.wallMs / 1000.0)
                               : 0.0;
        const double speedup = serial.wallMs / r.wallMs;
        if (threadPoints[i] == 4)
            speedupAt4 = speedup;
        std::printf("%8u %12.1f %14.0f %8.2fx %10s\n", threadPoints[i],
                    r.wallMs, eps, speedup, same ? "yes" : "NO");
    }
    std::printf("speedup at 4 threads: %.2fx (target >= 2x on a "
                ">=4-core host)\n",
                speedupAt4);
    if (hwCores < 4) {
        std::printf("note: this host exposes %u core(s); wall-clock "
                    "scaling is bounded by the hardware, the "
                    "bit-identity gate above is the binding check "
                    "here\n",
                    hwCores);
    }

    std::ofstream pjs("BENCH_parallel.json");
    pjs << "{\n  \"scenario\": \"cluster-8shard-bawal-gc\",\n";
    pjs << "  \"hardware_concurrency\": " << hwCores << ",\n";
    pjs << "  \"shards\": 8,\n  \"events_fired\": "
        << serial.res.eventsFired << ",\n  \"rounds\": "
        << serial.res.rounds << ",\n  \"messages\": "
        << serial.res.messages << ",\n";
    pjs << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
        const ClusterRun &r = scaling[i];
        pjs << "    {\"engine_threads\": " << threadPoints[i]
            << ", \"wall_ms\": " << r.wallMs
            << ", \"events_per_sec\": "
            << (r.wallMs > 0.0
                    ? static_cast<double>(r.res.eventsFired) /
                          (r.wallMs / 1000.0)
                    : 0.0)
            << ", \"speedup\": " << serial.wallMs / r.wallMs
            << ", \"bit_identical\": true}"
            << (i + 1 < scaling.size() ? ",\n" : "\n");
    }
    pjs << "  ],\n  \"speedup_at_4_threads\": " << speedupAt4
        << "\n}\n";
    std::printf("wrote BENCH_parallel.json\n");

    std::ofstream js("BENCH_simcore.json");
    js << "{\n  \"hardware_concurrency\": " << hwCores
       << ",\n  \"build_type\": \"" << BSSD_BUILD_TYPE << "\",\n";
    js << "  \"events_per_scenario\": " << kEvents << ",\n";
    js << "  \"kernel\": [\n";
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        js << "    {\"scenario\": \"" << rows[i].name
           << "\", \"events_per_sec\": " << rows[i].eps << "}"
           << (i + 1 < std::size(rows) ? ",\n" : "\n");
    }
    js << "  ],\n  \"fig7_fio_wall_ms\": " << fioMs
       << ",\n  \"fig9_minipg_wall_ms\": " << pgMs << "\n}\n";
    std::printf("\nwrote BENCH_simcore.json\n");
    return 0;
}

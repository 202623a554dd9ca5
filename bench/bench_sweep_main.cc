/**
 * @file
 * Parallel benchmark sweep: the full (device preset × workload ×
 * client count × seed) matrix, executed concurrently on the sweep
 * harness, consolidated into BENCH_sweep.json.
 *
 * Each cell is one self-contained single-threaded simulation, so the
 * numbers are bit-identical to a serial run (tests/workload/
 * test_sweep_determinism.cc asserts this); threads only change how
 * long you wait.
 *
 * Usage: bench_sweep_main [--threads=N] [--quick] [--metrics=FILE]
 *   --threads=N     worker threads (default: hardware concurrency)
 *   --quick         smaller matrix / shorter horizon (CI smoke)
 *   --metrics=FILE  per-cell metric snapshots merged in job order
 *                   (deterministic regardless of worker scheduling)
 *                   and written as one JSON report
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <vector>

#include "bench_rigs.hh"
#include "bench_util.hh"
#include "support/stopwatch.hh"
#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "db/minirocks/minirocks.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workload/runner.hh"

using namespace bssd;
using namespace bssd::bench;
using namespace bssd::workload;

namespace
{

enum class App
{
    linkbenchPg,
    ycsbaRocks,
    ycsbaRedis,
};

const char *
appName(App a)
{
    switch (a) {
      case App::linkbenchPg: return "linkbench-minipg";
      case App::ycsbaRocks: return "ycsba128-minirocks";
      case App::ycsbaRedis: return "ycsba128-miniredis";
    }
    return "?";
}

struct Cell
{
    RigKind rig;
    App app;
    unsigned clients;
    std::uint64_t seed;
};

sim::SweepRecord
runCell(const Cell &cell, sim::Tick horizon,
        sim::MetricsSnapshot *outMetrics)
{
    Stopwatch sw;

    // Window sizes per app, matching Fig. 9.
    std::uint64_t half = cell.app == App::linkbenchPg ? 4 * sim::MiB
                       : cell.app == App::ycsbaRocks ? 2 * sim::MiB
                                                     : 0;
    bool doubleBuf = cell.app != App::ycsbaRedis;
    rigs::Rig rig = makeRig(cell.rig, half, doubleBuf);

    sim::MetricRegistry registry;
    if (outMetrics)
        rig.registerMetrics(registry, "rig");

    RunResult res;
    switch (cell.app) {
      case App::linkbenchPg: {
        db::minipg::MiniPg pg(*rig.log);
        LinkbenchConfig cfg;
        cfg.nodeCount = 20'000;
        res = runLinkbenchOnPg(pg, cfg, cell.clients, horizon,
                               cell.seed);
        break;
      }
      case App::ycsbaRocks: {
        db::minirocks::MiniRocks db(*rig.log, rig.dataDevice());
        YcsbConfig cfg = ycsbWorkloadA(128);
        cfg.recordCount = 1000;
        sim::Tick loaded = loadRocks(db, cfg, cfg.recordCount);
        res = runYcsbOnRocks(db, cfg, cell.clients, horizon, cell.seed,
                             loaded);
        break;
      }
      case App::ycsbaRedis: {
        db::miniredis::MiniRedis db(*rig.log);
        YcsbConfig cfg = ycsbWorkloadA(128);
        cfg.recordCount = 1000;
        sim::Tick loaded = loadRedis(db, cfg, cfg.recordCount);
        res = runYcsbOnRedis(db, cfg, horizon, cell.seed, loaded);
        break;
      }
    }

    double ms = sw.ms();

    if (outMetrics)
        *outMetrics = registry.snapshot();

    sim::SweepRecord rec;
    rec.device = rigName(cell.rig);
    rec.workload = appName(cell.app);
    rec.clients = cell.clients;
    rec.seed = cell.seed;
    rec.ops = res.ops;
    rec.opsPerSec = res.opsPerSec;
    rec.meanUs = res.meanLatencyUs;
    rec.p99Us = res.p99LatencyUs;
    rec.wallMs = ms;
    rec.eventsPerSec =
        ms > 0.0
            ? static_cast<double>(rig.eventsFired()) / (ms / 1000.0)
            : 0.0;
    return rec;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    const std::string metricsPath = stringArg(argc, argv, "--metrics");
    unsigned threads = threadsArg(argc, argv);
    if (threads == 0)
        threads = sim::defaultSweepThreads();

    const sim::Tick horizon = quick ? sim::msOf(20) : sim::msOf(100);

    std::vector<Cell> cells;
    const std::vector<unsigned> clientCounts =
        quick ? std::vector<unsigned>{4} : std::vector<unsigned>{4, 8};
    const std::vector<std::uint64_t> seeds =
        quick ? std::vector<std::uint64_t>{1}
              : std::vector<std::uint64_t>{1, 2};
    for (RigKind rig :
         {RigKind::dc, RigKind::ull, RigKind::twoB, RigKind::async}) {
        for (App app :
             {App::linkbenchPg, App::ycsbaRocks, App::ycsbaRedis}) {
            for (unsigned clients : clientCounts) {
                // miniredis is single-threaded: one cell per seed.
                if (app == App::ycsbaRedis && clients != clientCounts[0])
                    continue;
                for (std::uint64_t seed : seeds) {
                    cells.push_back(
                        {rig, app,
                         app == App::ycsbaRedis ? 1u : clients, seed});
                }
            }
        }
    }

    banner("sweep", "parallel benchmark sweep (" +
                        std::to_string(cells.size()) + " cells, " +
                        std::to_string(threads) + " threads)");

    std::vector<sim::SweepRecord> records(cells.size());
    std::vector<sim::MetricsSnapshot> snapshots(cells.size());
    sim::MetricsSnapshot *snaps =
        metricsPath.empty() ? nullptr : snapshots.data();
    std::vector<std::function<void()>> jobs;
    jobs.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        jobs.push_back(
            [&records, &cells, i, horizon, snaps] {
                records[i] = runCell(cells[i], horizon,
                                     snaps ? snaps + i : nullptr);
            });

    Stopwatch sw;
    sim::runParallel(jobs, threads);
    double totalMs = sw.ms();

    std::printf("%-9s %-20s %3s %4s %12s %9s %9s %8s\n", "device",
                "workload", "cl", "seed", "ops/s", "mean(us)",
                "p99(us)", "wall ms");
    for (const auto &r : records) {
        std::printf("%-9s %-20s %3u %4llu %12.0f %9.1f %9.1f %8.1f\n",
                    r.device.c_str(), r.workload.c_str(), r.clients,
                    static_cast<unsigned long long>(r.seed), r.opsPerSec,
                    r.meanUs, r.p99Us, r.wallMs);
    }
    std::printf("\ntotal wall-clock: %.1f ms on %u threads\n", totalMs,
                threads);

    std::ofstream os("BENCH_sweep.json");
    sim::writeSweepJson(os, records, threads, totalMs);
    std::printf("wrote BENCH_sweep.json (%zu runs)\n", records.size());

    if (!metricsPath.empty()) {
        // Merge the per-worker snapshots in JOB order, not completion
        // order: the merged report is then a pure function of the cell
        // matrix, bit-identical for any thread count.
        sim::RunReport rep;
        rep.bench = "bench_sweep_main";
        rep.config = std::to_string(cells.size()) + " cells merged";
        for (const auto &s : snapshots)
            rep.metrics.merge(s);
        std::ofstream mos(metricsPath);
        rep.writeJson(mos);
        std::printf("wrote merged metrics report: %s\n",
                    metricsPath.c_str());
    }
    return 0;
}

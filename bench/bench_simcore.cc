/**
 * @file
 * Simulation-kernel self-benchmark: raw event throughput of the slab
 * event pool (absolute events per wall second, three scenarios), plus
 * wall-clock spot checks of two real figure benches.
 *
 * Emits BENCH_simcore.json (see baselines/BENCH_simcore.json for the
 * recorded trajectory).
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "bench_util.hh"
#include "support/stopwatch.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "ssd/ssd_device.hh"
#include "wal/ba_wal.hh"
#include "ba/two_b_ssd.hh"
#include "db/minipg/minipg.hh"
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

} // namespace

int
main()
{
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

    std::ofstream js("BENCH_simcore.json");
    js << "{\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
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

/**
 * @file
 * The repo benchmark's binary: one iteration of one named fleet
 * workload per process, reported as one JSON object on stdout.
 * perfbench/run.py builds this, runs it repeatedly for a fixed wall
 * budget, checks its outputs and prints the benchmark's metrics.
 *
 * It drives the program only through cluster::Cluster's public calls
 * and times them from here (bench/support/stopwatch.hh is the tree's
 * one wall-clock site): construction, run(), verifyConsistency(),
 * stateDigest() and the metricsJson()/sloJson() export. Counters are
 * read after run() from router(), engine() and metricsSnapshot().
 *
 * Usage:
 *   perfbench --workload=NAME --seed=N [--replay]
 *   perfbench --workload=NAME --seed=N --setup=K
 *   perfbench --check-threads --seed=N
 *
 *   --replay        also run the traced single-shard replay
 *                   (replay.hh) and its fidelity comparison
 *   --setup=K       only time K Cluster constructions and report
 *                   their median
 *   --check-threads run a shortened pg-gc serially and at 4 engine
 *                   threads and report whether digest, metrics and
 *                   SLO series are identical
 *
 * Exit code: 0 with a JSON line (check "verified"), 1 when the run
 * threw, 2 on bad usage, 3 when the build is not fit for timing.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hh"
#include "cluster/cluster.hh"
#include "replay.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"
#include "ssd/ssd_device.hh"
#include "support/stopwatch.hh"

using namespace bssd;

namespace
{

using Cfg = cluster::ClusterConfig;

/** bench_cluster's full fleet (its poisson mix, seed aside). */
Cfg
fullFleet(std::uint64_t seed)
{
    Cfg cfg;
    cfg.shards = 8;
    cfg.gc = false;
    cfg.opsPerCycle = 2048;
    cfg.cycles = 1024;
    cfg.keySpace = 2'000'000;
    cfg.valueBytes = 64;
    cfg.arrival.meanGap = sim::msOf(25);
    cfg.seed = seed;
    return cfg;
}

/** bench_cluster's bursty-move mix: 16k-op spikes at the same mean
 *  load, plus an online move of a quarter of the routing space. */
Cfg
burstyMove(std::uint64_t seed)
{
    Cfg cfg = fullFleet(seed);
    cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
    cfg.arrival.burstSize = 8;
    cfg.arrival.burstGap = sim::usOf(20);
    cfg.arrival.meanGap = sim::msOf(200);
    cfg.rebalanceAtCycle = cfg.cycles / 3;
    cfg.moveBegin256 = 0;
    cfg.moveEnd256 = 64;
    cfg.moveTo = cfg.shards - 1;
    return cfg;
}

/** minipg over the page-aligned block WAL with continuous background
 *  GC: a small store, so host time goes to the device path and the
 *  engine's barrier rounds rather than to the store's hash map. Timed
 *  on the serial engine: on a few shared cores each round of a
 *  threaded run waits for its slowest, possibly descheduled, worker,
 *  so its wall time measures the host's other load. checkThreads()
 *  keeps the 4-thread engine checked. */
Cfg
pgGc(std::uint64_t seed)
{
    Cfg cfg;
    cfg.shards = 8;
    cfg.engine = Cfg::Engine::pg;
    cfg.wal = Cfg::Wal::block;
    cfg.gc = true;
    cfg.engineThreads = 1;
    cfg.opsPerCycle = 512;
    cfg.cycles = 2048;
    cfg.keySpace = 16'384;
    cfg.valueBytes = 64;
    cfg.arrival.meanGap = sim::msOf(10);
    cfg.seed = seed;
    return cfg;
}

std::optional<Cfg>
workloadConfig(const std::string &name, std::uint64_t seed)
{
    if (name == "poisson")
        return fullFleet(seed);
    if (name == "bursty-move")
        return burstyMove(seed);
    if (name == "pg-gc")
        return pgGc(seed);
    return std::nullopt;
}

/** Flat JSON object writer (one line; keys are fixed identifiers). */
class JsonLine
{
  public:
    void
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        raw(key, buf);
    }

    void count(const std::string &key, std::uint64_t v)
    {
        raw(key, std::to_string(v));
    }

    void flag(const std::string &key, bool v)
    {
        raw(key, v ? "true" : "false");
    }

    void
    str(const std::string &key, const std::string &v)
    {
        std::string s = "\"";
        for (char ch : v) {
            if (ch == '"' || ch == '\\')
                s += '\\';
            s += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
        }
        raw(key, s + "\"");
    }

    void
    print() const
    {
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    void
    raw(const std::string &key, const std::string &v)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + v;
    }

    std::string body_;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Sum of every "shardN.<suffix>" row's value. */
double
sumShards(const sim::MetricsSnapshot &snap, const std::string &suffix)
{
    double sum = 0.0;
    for (const auto &[path, row] : snap.rows) {
        const std::size_t dot = path.find('.');
        if (path.rfind("shard", 0) == 0 && dot != std::string::npos &&
            path.compare(dot + 1, std::string::npos, suffix) == 0) {
            sum += row.value;
        }
    }
    return sum;
}

/** The device counters sit under "ba.ssd." on 2B-SSD shards and
 *  under "ssd." on block-WAL shards; a fleet has one kind. */
double
sumDevice(const sim::MetricsSnapshot &snap, const std::string &suffix)
{
    return sumShards(snap, "ba.ssd." + suffix) +
           sumShards(snap, "ssd." + suffix);
}

/** p-th percentile (us) of a device histogram merged over shards. */
double
deviceP(const sim::MetricsSnapshot &snap, const std::string &suffix,
        double p)
{
    sim::MetricsSnapshot acc;
    for (const auto &[path, row] : snap.rows) {
        const std::size_t dot = path.find('.');
        if (path.rfind("shard", 0) != 0 || dot == std::string::npos)
            continue;
        const std::string rest = path.substr(dot + 1);
        if (rest == "ba.ssd." + suffix || rest == "ssd." + suffix) {
            sim::MetricsSnapshot one;
            one.rows.emplace("h", row);
            acc.merge(one);
        }
    }
    const sim::MetricValue *h = acc.find("h");
    return h ? sim::toUs(h->percentile(p)) : 0.0;
}

/** Max of one SLO column over the run (0 when absent). */
double
seriesMax(const sim::SeriesTable &t, const std::string &column)
{
    const auto it = std::find(t.columns.begin(), t.columns.end(), column);
    if (it == t.columns.end())
        return 0.0;
    const std::size_t col =
        static_cast<std::size_t>(it - t.columns.begin());
    double m = 0.0;
    for (const auto &row : t.rows)
        m = std::max(m, row.values[col]);
    return m;
}

/**
 * WAL truncations seen in the SLO series, over all shards: each drop
 * of a shard's wal_bytes gauge between consecutive samples is one
 * store snapshot. Samples land every cluster run() stride (>= 5 ms of
 * simulated time), so two truncations inside one stride count once.
 */
std::uint64_t
seriesTruncations(const sim::SeriesTable &t, unsigned shards)
{
    std::uint64_t n = 0;
    for (unsigned s = 0; s < shards; ++s) {
        const std::string column =
            "slo.shard" + std::to_string(s) + ".wal_bytes";
        const auto it =
            std::find(t.columns.begin(), t.columns.end(), column);
        if (it == t.columns.end())
            continue;
        const std::size_t col =
            static_cast<std::size_t>(it - t.columns.begin());
        for (std::size_t r = 1; r < t.rows.size(); ++r)
            n += t.rows[r].values[col] < t.rows[r - 1].values[col];
    }
    return n;
}

/**
 * Largest relative difference between a replay rig's metrics and the
 * fleet's rows of the same paths (values; sample counts for
 * histograms). 0 means the rig reproduced its fleet shard exactly.
 */
double
shardMetricGap(const sim::MetricsSnapshot &fleet,
               const sim::MetricsSnapshot &rig)
{
    using Kind = sim::MetricValue::Kind;
    double gap = 0.0;
    for (const auto &[path, row] : rig.rows) {
        const sim::MetricValue *f = fleet.find(path);
        if (f == nullptr)
            continue;
        const bool hist = row.kind == Kind::hist || row.kind == Kind::dist;
        const double a = hist ? static_cast<double>(row.count) : row.value;
        const double b = hist ? static_cast<double>(f->count) : f->value;
        gap = std::max(gap, std::abs(a - b) / std::max(std::abs(b), 1.0));
    }
    return gap;
}

/** Build and run identity: what a reader needs to trust the numbers. */
void
describe(JsonLine &out, const std::string &workload, const Cfg &cfg)
{
    out.str("workload", workload);
    out.count("seed", cfg.seed);
    out.count("engine_threads", cfg.engineThreads);
    out.count("ops_offered", cfg.cycles * cfg.opsPerCycle);
    out.count("hardware_concurrency", std::thread::hardware_concurrency());
    out.str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
    out.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    out.str("compiler", std::string("gcc ") + __VERSION__);
#else
    out.str("compiler", "unknown");
#endif
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Set-up only: @p reps Cluster constructions, reporting their median.
 * One construction takes well under a millisecond, and the first few
 * in a process still fault in fresh heap pages.
 */
int
runSetup(const std::string &name, const Cfg &cfg, unsigned reps)
{
    std::vector<double> setup;
    for (unsigned i = 0; i < reps; ++i) {
        bench::Stopwatch sw;
        auto c = std::make_unique<cluster::Cluster>(cfg);
        setup.push_back(sw.sec());
    }
    std::sort(setup.begin(), setup.end());
    JsonLine out;
    describe(out, name, cfg);
    out.num("setup_s", setup[setup.size() / 2]);
    out.print();
    return 0;
}

/** One timed iteration of one workload. @return exit code. */
int
runIteration(const std::string &name, const Cfg &cfg, bool replay)
{
    JsonLine out;
    describe(out, name, cfg);

    bench::Stopwatch sw;
    auto c = std::make_unique<cluster::Cluster>(cfg);
    const double constructS = sw.sec();

    sw.restart();
    c->run();
    const double runS = sw.sec();

    sw.restart();
    std::string error;
    try {
        c->verifyConsistency();
    } catch (const std::exception &e) {
        error = e.what();
    }
    const double verifyS = sw.sec();

    sw.restart();
    const std::uint64_t digest = c->stateDigest();
    const double digestS = sw.sec();

    sw.restart();
    c->metricsJson();
    c->sloJson();
    const double exportS = sw.sec();

    const double wallS = constructS + runS + verifyS + digestS + exportS;
    const host::ShardRouter &router = c->router();
    const sim::ParallelEngine &engine = c->engine();
    const double opsDone = static_cast<double>(router.opsCompleted());

    out.flag("verified", error.empty());
    out.str("error", error);
    out.count("ops_routed", router.opsRouted());
    out.count("ops_completed", router.opsCompleted());
    out.num("wall_s", wallS);
    out.num("sim_ops_per_wall_s", ratio(opsDone, wallS));
    out.num("construct_s", constructS);

    // Simulated results (deterministic for a given seed). The tail
    // percentiles move by up to a quarter from seed to seed, too much
    // for a regression bound, so they are reported as host-layer
    // (router histogram) figures rather than end-to-end ones.
    const sim::Histogram &lat = router.opLatency();
    const double simOpsPerS = ratio(opsDone, sim::toSec(c->horizon()));
    const double p50 = sim::toUs(lat.percentile(50.0));
    const double p99 = sim::toUs(lat.percentile(99.0));
    const double p999 = sim::toUs(lat.percentile(99.9));
    out.num("op_p50_us", p50);
    out.num("layer.router.op_p99_us", p99);
    out.num("layer.router.op_p999_us", p999);
    out.num("layer.router.op_p99999_us",
            sim::toUs(lat.percentile(99.999)));
    out.count("layer.router.op_samples", lat.count());
    out.num("sim_ops_per_s", simOpsPerS);
    out.count("horizon_ticks", c->horizon());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%llx",
                  static_cast<unsigned long long>(digest));
    out.str("state_digest", buf);
    // The same fields formatted as bench_cluster writes them into
    // baselines/BENCH_cluster.json, for an exact comparison.
    auto fixed = [&](const char *fmt, double v) {
        std::snprintf(buf, sizeof buf, fmt, v);
        return std::string(buf);
    };
    out.str("baseline.ops_per_sec", fixed("%.0f", simOpsPerS));
    out.str("baseline.op_p50_us", fixed("%.3f", p50));
    out.str("baseline.op_p99_us", fixed("%.3f", p99));
    out.str("baseline.op_p999_us", fixed("%.3f", p999));

    // Per-layer: wall timers around the public calls ...
    out.num("layer.cluster.run_s", runS);
    out.num("layer.cluster.verify_s", verifyS);
    out.num("layer.cluster.digest_s", digestS);
    out.num("layer.cluster.export_s", exportS);

    // ... and counts read after run(), summed over shards.
    const sim::MetricsSnapshot snap = c->metricsSnapshot();
    const sim::SeriesTable &slo = c->sloSeries();
    out.count("layer.router.ops_routed", router.opsRouted());
    out.count("layer.router.batches_dispatched", router.batchesDispatched());
    out.count("layer.router.batches_queued", router.batchesQueued());
    out.num("layer.router.ops_per_batch",
            ratio(static_cast<double>(router.opsRouted()),
                  static_cast<double>(router.batchesDispatched())));
    out.num("layer.router.batch_p99_us",
            sim::toUs(router.batchLatency().percentile(99)));
    out.num("layer.slo.held_ops_max", seriesMax(slo, "slo.cluster.held_ops"));
    out.count("layer.cluster.moved_keys", c->movedKeys());
    out.num("layer.cluster.hold_ms",
            sim::toMs(static_cast<sim::Tick>(
                seriesMax(slo, "slo.cluster.hold_ticks"))));

    out.count("layer.engine.events", engine.eventsFired());
    out.count("layer.engine.rounds", engine.rounds());
    out.count("layer.engine.messages", engine.messagesDelivered());
    out.num("layer.engine.batches_per_round",
            ratio(static_cast<double>(router.batchesDispatched()),
                  static_cast<double>(engine.rounds())));
    double stall = 0.0;
    for (const auto &[path, row] : snap.rows) {
        if (path.rfind("engine.", 0) == 0 &&
            path.size() > 12 &&
            path.compare(path.size() - 12, 12, ".stall_ticks") == 0) {
            stall += row.value;
        }
    }
    out.num("layer.engine.stall_ticks", stall);
    const sim::MetricValue *window = snap.find("engine.window_width");
    out.num("layer.engine.window_width_mean", window ? window->mean() : 0.0);

    // One WAL commit is one write-verify read on a BA-WAL (BA_SYNC)
    // and one device flush on a block WAL (fsync).
    const double commits =
        cfg.wal == Cfg::Wal::block
            ? sumShards(snap, "ssd.flushes")
            : sumShards(snap, "ba.ssd.pcie.non_posted_reads");
    out.num("layer.wal.commits", commits);
    out.num("layer.wal.half_switches", sumShards(snap, "wal.half_switches"));

    out.num("layer.ba.pcie.posted_bursts",
            sumShards(snap, "ba.ssd.pcie.posted_bursts"));
    out.num("layer.ba.pcie.non_posted_reads",
            sumShards(snap, "ba.ssd.pcie.non_posted_reads"));
    out.num("layer.ba.wc.capacity_evictions",
            sumShards(snap, "ba.wc.capacity_evictions"));
    out.num("layer.ba.flushes", sumShards(snap, "ba.ssd.flushes"));

    out.num("layer.ssd.writes", sumDevice(snap, "writes"));
    out.num("layer.ssd.write_lat_p99_us", deviceP(snap, "write_lat", 99.0));
    out.num("layer.pcie.dma_bytes", sumDevice(snap, "pcie.dma_bytes"));

    out.num("layer.ftl.waf", ratio(sumDevice(snap, "ftl.nand_pages"),
                                   sumDevice(snap, "ftl.host_pages")));
    out.num("layer.ftl.gc.steps", sumDevice(snap, "ftl.gc.steps"));
    out.num("layer.ftl.gc.pages_moved", sumDevice(snap, "ftl.gc.pages_moved"));
    out.num("layer.ftl.gc.step_lat_p99_us",
            deviceP(snap, "ftl.gc.step_lat", 99.0));
    out.num("layer.ftl.write_lat_p99_us",
            deviceP(snap, "ftl.write_lat", 99.0));

    out.num("layer.nand.pages_programmed",
            sumDevice(snap, "nand.pages_programmed"));
    out.num("layer.nand.pages_read", sumDevice(snap, "nand.pages_read"));
    out.num("layer.nand.blocks_erased", sumDevice(snap, "nand.blocks_erased"));
    const double channelTicks =
        static_cast<double>(c->horizon()) * cfg.shards *
        ssd::SsdConfig::tiny().nandCfg.geometry.channels;
    out.num("layer.nand.chan.busy_frac",
            ratio(sumDevice(snap, "nand.chan.busy_ticks"), channelTicks));
    out.num("layer.nand.erase_suspends",
            sumDevice(snap, "nand.erase_suspends"));
    out.num("layer.nand.read_bypasses", sumDevice(snap, "nand.read_bypasses"));

    out.num("peak_rss_mb", peakRssMb());

    if (replay) {
        // Fleet-side figures the replay must reproduce, per op: WAL
        // commits (above) and store snapshots (SLO truncations). A
        // block WAL's store-bytes gauge never restarts, so its fleet
        // snapshots are invisible there and snapshot_gap reads 0; the
        // shard metric gap (FTL trims, GC) still covers that drift.
        const double fleetCommitsPerOp = ratio(commits, opsDone);
        const double fleetSnapsPerOp = ratio(
            static_cast<double>(seriesTruncations(slo, cfg.shards)),
            opsDone);
        const unsigned shard = 0;
        const std::uint64_t fleetShardHash = c->shardContentHash(shard);
        c.reset();

        // The first replay pays for faulting in fresh heap pages; the
        // overhead compares two warm ones.
        perfbench::replayShard(cfg, shard, false);
        const perfbench::ReplayResult plain =
            perfbench::replayShard(cfg, shard, false);
        const perfbench::ReplayResult r =
            perfbench::replayShard(cfg, shard, true);
        const double ops = static_cast<double>(r.ops);
        out.num("layer.store.self_s", r.storeSelfS);
        out.num("layer.wal.incl_s", r.walInclS);
        out.num("layer.store.snapshot_s", r.snapshotS);
        out.count("layer.store.calls", r.ops);
        out.count("layer.wal.calls", r.walCalls);
        out.count("layer.store.snapshots", r.snapshots);
        out.num("layer.trace.overhead_s", r.loopS - plain.loopS);
        out.count("layer.wal.bytes_appended", r.bytesAppended);
        out.count("layer.wal.bytes_to_store", r.bytesToStore);
        out.num("layer.wal.store_per_user_byte",
                ratio(static_cast<double>(r.bytesToStore),
                      static_cast<double>(r.bytesAppended)));
        // |replay per-op rate / fleet per-shard per-op rate - 1|
        auto gap = [&](std::uint64_t replayCount, double fleetPerOp) {
            return fleetPerOp > 0.0
                       ? std::abs(ratio(static_cast<double>(replayCount),
                                        ops) /
                                      fleetPerOp -
                                  1.0)
                       : 0.0;
        };
        out.num("layer.replay.commit_rate_gap",
                gap(r.walCommits, fleetCommitsPerOp));
        out.num("layer.replay.snapshot_gap",
                gap(r.snapshots, fleetSnapsPerOp));
        out.num("layer.replay.shard_metric_gap",
                shardMetricGap(snap, r.metrics));
        out.flag("layer.replay.state_match",
                 r.contentHash == fleetShardHash &&
                     plain.contentHash == fleetShardHash);
    }
    out.print();
    return 0;
}

/** Shortened pg-gc, serial against 4 engine threads. */
int
checkThreads(std::uint64_t seed)
{
    Cfg cfg = pgGc(seed);
    cfg.cycles = 64;
    auto once = [&](unsigned threads) {
        cfg.engineThreads = threads;
        cluster::Cluster c(cfg);
        c.run();
        c.verifyConsistency();
        return std::make_tuple(c.stateDigest(), c.metricsJson(),
                               c.sloJson(), c.horizon(),
                               c.router().opsCompleted());
    };
    const auto serial = once(1);
    const auto threaded = once(4);
    JsonLine out;
    out.flag("thread_identity", serial == threaded);
    out.count("ops", std::get<4>(serial));
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#if defined(BSSD_DOMAIN_CHECK) || !defined(__OPTIMIZE__)
    // Host times from a checked or unoptimised build mean nothing.
    std::fprintf(stderr, "perfbench: refusing to run: this build is %s\n",
#ifdef BSSD_DOMAIN_CHECK
                 "BSSD_DOMAIN_CHECK"
#else
                 "unoptimised"
#endif
    );
    return 3;
#endif
    const std::string workload = bench::stringArg(argc, argv, "--workload");
    const std::string seedArg = bench::stringArg(argc, argv, "--seed");
    const std::string setupArg = bench::stringArg(argc, argv, "--setup");
    bool replay = false;
    bool threads = false;
    for (int i = 1; i < argc; ++i) {
        replay = replay || std::string(argv[i]) == "--replay";
        threads = threads || std::string(argv[i]) == "--check-threads";
    }
    if (seedArg.empty()) {
        std::fprintf(stderr, "perfbench: --seed=N required\n");
        return 2;
    }
    try {
        const std::uint64_t seed = std::stoull(seedArg);
        if (threads)
            return checkThreads(seed);
        const std::optional<Cfg> cfg = workloadConfig(workload, seed);
        if (!cfg) {
            std::fprintf(stderr,
                         "perfbench: unknown --workload '%s' (poisson, "
                         "bursty-move, pg-gc)\n",
                         workload.c_str());
            return 2;
        }
        if (!setupArg.empty()) {
            return runSetup(workload, *cfg,
                            std::max(1u, static_cast<unsigned>(
                                             std::stoul(setupArg))));
        }
        return runIteration(workload, *cfg, replay);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

/**
 * @file
 * crash_campaign: command-line front end of the crash-point durability
 * campaign (tests/support/crash_harness.hh).
 *
 * Default mode sweeps every (engine x durable WAL) cell for the given
 * seeds: enumerate all durability tracepoint hits of the cell's op
 * stream, crash at each one (or a strided sample with --max-points),
 * recover, and check the acknowledged-prefix invariant. Every failure
 * prints a one-line repro (seed + crash-point index) that replays
 * through --point; with --shrink the op stream is delta-debugged down
 * to a minimal still-failing stream first.
 *
 *   crash_campaign                              # full sweep, seed 1
 *   crash_campaign --seeds=32 --max-points=12   # the nightly matrix
 *   crash_campaign --engine=redis --wal=ba --seed=7 --point=231
 *   crash_campaign --cap-scale=0.25 --torn-wc   # layered faults
 *
 * Exit status: 0 when every tested crash point recovered, 1 otherwise,
 * 2 on usage errors (a numeric flag that is not wholly a number in
 * range among them).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/report.hh"

#include "../bench/bench_util.hh"
#include "../tests/support/crash_harness.hh"

using namespace bssd;
using campaign::CellConfig;
using campaign::CellResult;
using campaign::PgAdapter;
using campaign::RedisAdapter;
using rigs::WalKind;
using rigs::walName;

namespace
{

struct Options
{
    std::string engine = "all";
    std::string wal = "all";
    std::uint64_t seed = 1;
    std::uint64_t seeds = 1;
    std::optional<std::uint64_t> point;
    std::size_t maxPoints = 0; // 0 = exhaustive
    bool shrink = false;
    std::string metricsPath;
    sim::FaultPlan plan;
};

/** Campaign-wide totals, exported through --metrics. */
struct Totals
{
    std::uint64_t cells = 0;
    std::uint64_t enumeratedHits = 0;
    std::uint64_t pointsTested = 0;
    std::uint64_t pointsSurvived = 0;
    std::uint64_t lossReported = 0;
    std::uint64_t failures = 0;
} totals;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--engine=redis|pg|all] [--wal=NAME|all] [--seed=N]\n"
        "          [--seeds=N] [--point=K] [--max-points=N] [--shrink]\n"
        "          [--nand-fail-rate=F] [--cap-scale=F] [--torn-wc]\n"
        "          [--posted-drop-ns=N] [--metrics=FILE]\n",
        argv0);
    std::fprintf(stderr, "WAL names:");
    for (WalKind k : campaign::durableWals())
        std::fprintf(stderr, " %s", walName(k));
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::optional<WalKind>
parseWal(const std::string &s)
{
    for (WalKind k : campaign::durableWals())
        if (s == walName(k))
            return k;
    return std::nullopt;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto eq = a.find('=');
        std::string key = a.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
        auto num = [&](std::uint64_t min = 0) {
            return bench::unsignedValue(key, val.c_str(), min, UINT64_MAX);
        };
        // Both float flags are fractions: a probability and the share
        // of the capacitors' design energy left after ageing.
        auto frac = [&] { return bench::decimalValue(key, val.c_str(), 1.0); };
        if (key == "--engine") {
            o.engine = val;
        } else if (key == "--wal") {
            o.wal = val;
        } else if (key == "--seed") {
            o.seed = num();
        } else if (key == "--seeds") {
            o.seeds = num(1);
        } else if (key == "--point") {
            o.point = num();
        } else if (key == "--max-points") {
            o.maxPoints = num();
        } else if (key == "--shrink") {
            o.shrink = true;
        } else if (key == "--nand-fail-rate") {
            o.plan.nandProgramFailRate = frac();
        } else if (key == "--cap-scale") {
            o.plan.capacitorEnergyScale = frac();
        } else if (key == "--torn-wc") {
            o.plan.wcPartialLineOnPowerCut = true;
        } else if (key == "--posted-drop-ns") {
            o.plan.postedDropWindow = num();
        } else if (key == "--metrics") {
            o.metricsPath = val;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
            usage(argv[0]);
        }
    }
    if (o.engine != "all" && o.engine != "redis" && o.engine != "pg") {
        std::fprintf(stderr, "unknown engine '%s'\n", o.engine.c_str());
        usage(argv[0]);
    }
    if (o.wal != "all" && !parseWal(o.wal)) {
        std::fprintf(stderr, "unknown wal '%s'\n", o.wal.c_str());
        usage(argv[0]);
    }
    if (o.point && (o.engine == "all" || o.wal == "all")) {
        std::fprintf(stderr,
                     "--point needs a specific --engine and --wal\n");
        usage(argv[0]);
    }
    return o;
}

/** Is there ANY failing crash point for this op stream? */
template <typename A>
bool
anyFailure(WalKind wal, const sim::FaultPlan &plan,
           const std::vector<typename A::Op> &ops, std::size_t maxPoints,
           std::uint64_t *point = nullptr, std::string *detail = nullptr)
{
    const std::uint64_t total = campaign::countHits<A>(wal, ops, plan);
    std::uint64_t stride = 1;
    if (maxPoints && total > maxPoints)
        stride = total / maxPoints;
    for (std::uint64_t k = 0; k < total; k += stride) {
        auto o = campaign::runPoint<A>(wal, ops, plan, k);
        if (!o.survived || !o.detail.empty()) {
            if (point)
                *point = k;
            if (detail)
                *detail = o.detail;
            return true;
        }
    }
    return false;
}

/**
 * Greedy delta-debug: repeatedly drop chunks of the op stream while
 * some crash point still fails, halving the chunk size until single
 * ops cannot be removed.
 */
template <typename A>
std::vector<typename A::Op>
shrinkOps(WalKind wal, const sim::FaultPlan &plan,
          std::vector<typename A::Op> ops, std::size_t maxPoints)
{
    for (std::size_t chunk = std::max<std::size_t>(1, ops.size() / 2);;
         chunk /= 2) {
        bool removed = true;
        while (removed && ops.size() > 1) {
            removed = false;
            for (std::size_t i = 0; i + chunk <= ops.size();) {
                std::vector<typename A::Op> cand = ops;
                cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i),
                           cand.begin() +
                               static_cast<std::ptrdiff_t>(i + chunk));
                if (anyFailure<A>(wal, plan, cand, maxPoints)) {
                    ops = std::move(cand);
                    removed = true;
                } else {
                    i += chunk;
                }
            }
        }
        if (chunk == 1)
            break;
    }
    return ops;
}

template <typename A>
int
runSinglePoint(const Options &o, WalKind wal)
{
    sim::FaultPlan plan = o.plan;
    plan.seed = o.seed;
    const auto ops = A::makeOps(o.seed);
    auto out = campaign::runPoint<A>(wal, ops, plan, *o.point);
    std::printf("%s x %s seed %llu point %llu: %s%s\n", A::name,
                walName(wal), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(*o.point),
                out.survived && out.detail.empty() ? "RECOVERED"
                                                   : "FAILED",
                out.lossReported ? " (dump reported loss)" : "");
    if (out.survived && out.detail.empty()) {
        std::printf("  recovered state == prefix of %zu ops\n",
                    out.matchedPrefix);
        return 0;
    }
    std::printf("  %s\n", out.detail.c_str());
    return 1;
}

template <typename A>
int
runCells(const Options &o, WalKind wal)
{
    int failures = 0;
    // Count seeds rather than compare against seed + seeds, which
    // wraps to an empty range when --seed is near the top.
    for (std::uint64_t i = 0; i < o.seeds; ++i) {
        const std::uint64_t s = o.seed + i;
        CellConfig cc;
        cc.maxPoints = o.maxPoints;
        cc.plan = o.plan;
        CellResult res = campaign::runCell<A>(wal, s, cc);
        ++totals.cells;
        totals.enumeratedHits += res.enumeratedHits;
        totals.pointsTested += res.pointsTested;
        totals.pointsSurvived += res.pointsSurvived;
        totals.lossReported += res.lossReported;
        totals.failures += res.failures.size();
        std::printf("%-5s %-9s seed %-4llu hits %-5llu tested %-5zu "
                    "survived %-5zu loss %-4zu %s\n",
                    A::name, walName(wal),
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(res.enumeratedHits),
                    res.pointsTested, res.pointsSurvived,
                    res.lossReported,
                    res.failures.empty() ? "ok" : "FAIL");
        std::fflush(stdout);
        for (const auto &f : res.failures) {
            ++failures;
            std::printf("  crash point %llu: %s\n",
                        static_cast<unsigned long long>(f.point),
                        f.detail.c_str());
        }
        if (!res.failures.empty() && o.shrink) {
            sim::FaultPlan plan = o.plan;
            plan.seed = s;
            auto minimal = shrinkOps<A>(wal, plan, A::makeOps(s),
                                        o.maxPoints);
            std::uint64_t point = 0;
            std::string detail;
            anyFailure<A>(wal, plan, minimal, o.maxPoints, &point,
                          &detail);
            std::printf("  shrunk to %zu ops, first failing point %llu"
                        "\n",
                        minimal.size(),
                        static_cast<unsigned long long>(point));
            for (const auto &op : minimal)
                std::printf("    %s\n", A::describe(op).c_str());
            std::printf(
                "  %s\n",
                campaign::reproLine(A::name, wal, s,
                                    static_cast<std::int64_t>(point))
                    .c_str());
        }
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    sim::setLogQuiet(true); // dump warnings would flood the sweep

    std::vector<WalKind> wals;
    if (o.wal == "all")
        wals = campaign::durableWals();
    else
        wals = {*parseWal(o.wal)};

    int failures = 0;
    for (WalKind wal : wals) {
        if (o.engine == "redis" || o.engine == "all") {
            failures += o.point ? runSinglePoint<RedisAdapter>(o, wal)
                                : runCells<RedisAdapter>(o, wal);
        }
        if (o.engine == "pg" || o.engine == "all") {
            failures += o.point ? runSinglePoint<PgAdapter>(o, wal)
                                : runCells<PgAdapter>(o, wal);
        }
    }
    if (!o.metricsPath.empty()) {
        // Campaign totals through the standard report path, so the
        // nightly matrix lands in the same machine-readable shape as
        // the bench reports.
        sim::MetricRegistry registry;
        registry.addGauge("campaign.cells", [] {
            return static_cast<double>(totals.cells);
        });
        registry.addGauge("campaign.enumerated_hits", [] {
            return static_cast<double>(totals.enumeratedHits);
        });
        registry.addGauge("campaign.points_tested", [] {
            return static_cast<double>(totals.pointsTested);
        });
        registry.addGauge("campaign.points_survived", [] {
            return static_cast<double>(totals.pointsSurvived);
        });
        registry.addGauge("campaign.loss_reported", [] {
            return static_cast<double>(totals.lossReported);
        });
        registry.addGauge("campaign.failures", [] {
            return static_cast<double>(totals.failures);
        });
        sim::RunReport rep;
        rep.bench = "crash_campaign";
        rep.config = "engine=" + o.engine + " wal=" + o.wal;
        rep.seed = o.seed;
        rep.metrics = registry.snapshot();
        std::ofstream os(o.metricsPath);
        rep.writeJson(os);
        std::printf("wrote metrics report: %s\n", o.metricsPath.c_str());
    }

    if (failures) {
        std::printf("%d crash point(s) violated the acknowledged-prefix "
                    "invariant\n",
                    failures);
        return 1;
    }
    std::printf("all tested crash points recovered\n");
    return 0;
}

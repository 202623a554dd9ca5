/**
 * @file
 * The crash-point campaign harness (gtest-free: shared by
 * tests/fault/test_crash_points.cc and tools/crash_campaign.cc).
 *
 * One campaign cell is an (engine, WAL device) pair driven by a
 * seed-deterministic op stream. The harness first runs the stream
 * uncrashed with a recording FaultInjector to enumerate every
 * durability tracepoint hit, then - for each enumerated hit index -
 * rebuilds the rig from scratch, arms a power cut at exactly that hit,
 * replays the stream until the cut fires, pulls the plug, recovers the
 * engine and checks the acknowledged-prefix invariant: the recovered
 * state must equal the state after some prefix of the op stream no
 * shorter than the acknowledged prefix. When the BA dump reported data
 * loss (degraded capacitors), the lower bound relaxes to zero - loss
 * is allowed only when it is reported, never silently.
 *
 * Determinism: makeOps() draws only from its own Rng(seed) and the
 * injector only from Rng(plan.seed), so a cell run is a pure function
 * of (engine, wal, seed, plan). The repro line for any failure is
 * reproLine(engine, wal, seed, point).
 */

#ifndef BSSD_TESTS_SUPPORT_CRASH_HARNESS_HH
#define BSSD_TESTS_SUPPORT_CRASH_HARNESS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "wal/rig.hh"

namespace bssd::campaign
{

using rigs::WalKind;

/** The WAL devices with a durability contract (async is excluded:
 *  it promises nothing, so there is no invariant to check). */
inline const std::vector<WalKind> &
durableWals()
{
    static const std::vector<WalKind> wals = {
        WalKind::block, WalKind::ba, WalKind::baSingle,
        WalKind::baRepl, WalKind::pm, WalKind::pmr,
    };
    return wals;
}

/**
 * One-line repro for a failing (engine, wal, seed[, crash point])
 * cell, replayable via the crash_campaign tool.
 */
inline std::string
reproLine(const std::string &engine, WalKind wal, std::uint64_t seed,
          std::int64_t crashPoint = -1)
{
    std::string s = "repro: crash_campaign --engine=" + engine +
                    " --wal=" + rigs::walName(wal) +
                    " --seed=" + std::to_string(seed);
    if (crashPoint >= 0)
        s += " --point=" + std::to_string(crashPoint);
    return s;
}

/**
 * Engine adapter for miniredis: SET/DEL over a small key space with
 * values sized to push the BA-WAL across half switches within ~140
 * ops. Values embed the op index so distinct prefixes are (almost
 * always) distinguishable states.
 */
struct RedisAdapter
{
    static constexpr const char *name = "redis";
    using Db = db::miniredis::MiniRedis;

    struct Op
    {
        bool isSet = false;
        std::string key;
        std::string value;
    };

    /** key -> value after a prefix of the stream. */
    using Model = std::map<std::string, std::string>;

    static std::vector<Op>
    makeOps(std::uint64_t seed, std::size_t count = 160)
    {
        sim::Rng rng(seed * 2654435761u + 0x2b);
        std::vector<Op> ops;
        ops.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            Op op;
            op.key = "k" + std::to_string(rng.nextBelow(24));
            op.isSet = rng.chance(0.8);
            if (op.isSet) {
                // Sized so ~160 ops total ~45 KB of log: the 32 KiB
                // BA-WAL halves switch mid-stream, putting BA_FLUSH
                // destages (FTL + NAND programs) inside the sweep.
                op.value =
                    "v" + std::to_string(i) + ":" +
                    std::string(48 + rng.nextBelow(560),
                                static_cast<char>('a' + i % 26));
            }
            ops.push_back(std::move(op));
        }
        return ops;
    }

    static sim::Tick
    apply(Db &db, sim::Tick t, const Op &op)
    {
        if (op.isSet) {
            return db.set(
                t, op.key,
                {reinterpret_cast<const std::uint8_t *>(op.value.data()),
                 op.value.size()});
        }
        return db.del(t, op.key);
    }

    static void
    applyModel(Model &m, const Op &op)
    {
        if (op.isSet)
            m[op.key] = op.value;
        else
            m.erase(op.key);
    }

    static bool
    matches(const Db &db, const Model &m)
    {
        if (db.keys() != m.size())
            return false;
        for (const auto &[k, v] : m) {
            std::optional<std::vector<std::uint8_t>> got;
            db.get(0, k, &got);
            if (!got || std::string(got->begin(), got->end()) != v)
                return false;
        }
        return true;
    }

    static std::string
    describe(const Op &op)
    {
        if (op.isSet) {
            return "SET " + op.key + " <" +
                   std::to_string(op.value.size()) + "B>";
        }
        return "DEL " + op.key;
    }
};

/**
 * Engine adapter for minipg: node updates/deletes (each one a
 * committed transaction through the group-commit gate). Payloads
 * embed the op index byte-wise.
 */
struct PgAdapter
{
    static constexpr const char *name = "pg";
    using Db = db::minipg::MiniPg;

    struct Op
    {
        bool isUpdate = false;
        std::uint64_t id = 0;
        std::vector<std::uint8_t> payload;
    };

    using Model = std::map<std::uint64_t, std::vector<std::uint8_t>>;

    static std::vector<Op>
    makeOps(std::uint64_t seed, std::size_t count = 160)
    {
        sim::Rng rng(seed * 31 + 7);
        std::vector<Op> ops;
        ops.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            Op op;
            op.id = rng.nextBelow(24);
            op.isUpdate = rng.chance(0.75);
            if (op.isUpdate) {
                op.payload.assign(120 + rng.nextBelow(400),
                                  static_cast<std::uint8_t>(i));
                op.payload[0] = static_cast<std::uint8_t>(i >> 8);
                op.payload[1] = static_cast<std::uint8_t>(i);
            }
            ops.push_back(std::move(op));
        }
        return ops;
    }

    static sim::Tick
    apply(Db &db, sim::Tick t, const Op &op)
    {
        if (op.isUpdate)
            return db.updateNode(t, op.id, op.payload);
        return db.deleteNode(t, op.id);
    }

    static void
    applyModel(Model &m, const Op &op)
    {
        if (op.isUpdate)
            m[op.id] = op.payload;
        else
            m.erase(op.id);
    }

    static bool
    matches(const Db &db, const Model &m)
    {
        if (db.nodeCount() != m.size())
            return false;
        for (const auto &[id, payload] : m) {
            std::vector<std::uint8_t> got;
            db.getNode(0, id, &got);
            if (got != payload)
                return false;
        }
        return true;
    }

    static std::string
    describe(const Op &op)
    {
        if (op.isUpdate) {
            return "UPDATE node " + std::to_string(op.id) + " <" +
                   std::to_string(op.payload.size()) + "B>";
        }
        return "DELETE node " + std::to_string(op.id);
    }
};

/** One crash point that violated the invariant. */
struct PointFailure
{
    std::uint64_t point = 0;
    std::string detail;
};

/** Outcome of crashing one cell at one hit index. */
struct PointOutcome
{
    bool survived = false;
    /** The cut actually fired (always true for point < enumerated
     *  hits on a deterministic stream). */
    bool cutFired = false;
    /** The BA dump reported losing data (degraded capacitors). */
    bool lossReported = false;
    /** The prefix length the recovered state matched (when survived). */
    std::size_t matchedPrefix = 0;
    std::string detail;
};

/** Aggregate result of one campaign cell. */
struct CellResult
{
    /** Durability tracepoint hits enumerated by the uncrashed run. */
    std::uint64_t enumeratedHits = 0;
    /** The full recorded hit sequence (determinism witness). */
    std::vector<sim::Tp> hitLog;
    std::size_t pointsTested = 0;
    std::size_t pointsSurvived = 0;
    /** Points where the dump reported loss (still within contract). */
    std::size_t lossReported = 0;
    std::vector<PointFailure> failures;
};

/**
 * Uncrashed enumeration run: drive the full op stream against a
 * recording injector and return the number of durability hits.
 * Ops are applied starting at t = 1 ms, matching every crash run.
 */
template <typename A>
std::uint64_t
countHits(const rigs::RigSpec &spec,
          const std::vector<typename A::Op> &ops,
          const sim::FaultPlan &plan, std::vector<sim::Tp> *log = nullptr)
{
    auto rig = rigs::makeRig(spec);
    typename A::Db db(*rig.log);
    sim::FaultInjector inj(plan);
    inj.setRecording(log != nullptr);
    rig.installFaultInjector(&inj);
    sim::Tick t = sim::msOf(1);
    for (const auto &op : ops)
        t = A::apply(db, t, op);
    if (log)
        *log = inj.hitLog();
    return inj.totalHits();
}

template <typename A>
std::uint64_t
countHits(WalKind wal, const std::vector<typename A::Op> &ops,
          const sim::FaultPlan &plan, std::vector<sim::Tp> *log = nullptr)
{
    return countHits<A>(rigs::tinySpec(wal), ops, plan, log);
}

/**
 * Crash one cell at global hit index @p point, recover, and check the
 * acknowledged-prefix invariant. A fresh rig is built so the run is
 * independent of every other point.
 */
template <typename A>
PointOutcome
runPoint(const rigs::RigSpec &spec,
         const std::vector<typename A::Op> &ops,
         const sim::FaultPlan &plan, std::uint64_t point)
{
    auto rig = rigs::makeRig(spec);
    typename A::Db db(*rig.log);
    sim::FaultInjector inj(plan);
    inj.armCrashAtHit(point);
    rig.installFaultInjector(&inj);

    sim::Tick t = sim::msOf(1);
    std::size_t acked = 0;
    try {
        for (const auto &op : ops) {
            t = A::apply(db, t, op);
            ++acked;
        }
    } catch (const sim::PowerCut &) {
    }

    PointOutcome out;
    out.cutFired = inj.cutFired();
    inj.disarm();

    // Pull the plug at the last acknowledged time and recover. The
    // injector stays installed (hits keep counting harmlessly) but is
    // disarmed, so recovery-time activity cannot crash again.
    rig.log->crash(t);
    // Recovery reads the promoted follower on replicated rigs, so its
    // dump - not the dead primary's - is the one whose reported loss
    // can excuse missing state.
    if (const auto *dev =
            rig.followerTwoB ? rig.followerTwoB.get() : rig.twoB.get()) {
        const auto &dump = dev->recovery().lastDump();
        out.lossReported = dump.attempted && !dump.success;
    }
    db.recover();

    // The recovered state must equal the state after some prefix j of
    // the stream with acked <= j <= acked+1 (the in-flight op may have
    // become durable before the cut). A reported dump loss relaxes the
    // lower bound: loss is allowed when reported, never silently.
    const std::size_t lo = out.lossReported ? 0 : acked;
    const std::size_t hi = std::min(acked + 1, ops.size());
    typename A::Model model;
    for (std::size_t j = 0;; ++j) {
        if (j >= lo && A::matches(db, model)) {
            out.survived = true;
            out.matchedPrefix = j;
            break;
        }
        if (j >= hi)
            break;
        A::applyModel(model, ops[j]);
    }

    if (!out.survived) {
        out.detail = "recovered state matches no op-stream prefix in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "] (acked=" + std::to_string(acked) +
                     (out.cutFired ? "" : ", cut never fired") +
                     (out.lossReported ? ", dump reported loss" : "") +
                     ")";
    } else if (!out.cutFired && point < ~std::uint64_t(0)) {
        // Reaching the end of the stream without the armed cut firing
        // is a determinism violation when the point was enumerated.
        out.detail = "armed cut at hit " + std::to_string(point) +
                     " never fired (hits this run: " +
                     std::to_string(inj.totalHits()) + ")";
    }
    return out;
}

template <typename A>
PointOutcome
runPoint(WalKind wal, const std::vector<typename A::Op> &ops,
         const sim::FaultPlan &plan, std::uint64_t point)
{
    return runPoint<A>(rigs::tinySpec(wal), ops, plan, point);
}

/** Campaign knobs for one cell. */
struct CellConfig
{
    /**
     * Cap on crash points actually exercised; the hit list is sampled
     * with a uniform stride when it is longer (the first and last hits
     * are always included). 0 = crash at every enumerated hit.
     */
    std::size_t maxPoints = 120;
    /** Extra component faults layered under the crash sweep. The
     *  seed field is overwritten with the cell seed. */
    sim::FaultPlan plan;
};

/**
 * Run one full campaign cell: enumerate, then crash at each (sampled)
 * hit index and verify recovery.
 */
template <typename A>
CellResult
runCell(WalKind wal, std::uint64_t seed, const CellConfig &cc = {})
{
    sim::FaultPlan plan = cc.plan;
    plan.seed = seed;
    const auto ops = A::makeOps(seed);

    CellResult res;
    res.enumeratedHits = countHits<A>(wal, ops, plan, &res.hitLog);
    const std::uint64_t total = res.enumeratedHits;
    if (total == 0)
        return res;

    // Floor division keeps the sampled count at or above maxPoints
    // (the cap is a lower bound on coverage, not a hard ceiling).
    std::uint64_t stride = 1;
    if (cc.maxPoints && total > cc.maxPoints)
        stride = total / cc.maxPoints;

    auto testPoint = [&](std::uint64_t k) {
        PointOutcome o = runPoint<A>(wal, ops, plan, k);
        ++res.pointsTested;
        if (o.lossReported)
            ++res.lossReported;
        if (o.survived && o.detail.empty()) {
            ++res.pointsSurvived;
        } else {
            res.failures.push_back(
                {k, o.detail + "\n  " +
                        reproLine(A::name, wal, seed,
                                  static_cast<std::int64_t>(k))});
        }
    };

    for (std::uint64_t k = 0; k < total; k += stride)
        testPoint(k);
    if (stride > 1 && (total - 1) % stride != 0)
        testPoint(total - 1);
    return res;
}

} // namespace bssd::campaign

#endif // BSSD_TESTS_SUPPORT_CRASH_HARNESS_HH

/**
 * @file
 * Crash-injection matrix: every engine on every durable log device,
 * crashed at randomized points mid-workload, must recover exactly the
 * committed state - the paper's "no risk of data loss" claim, checked
 * adversarially.
 *
 * For each (engine, wal, seed) combination the harness runs a
 * deterministic op stream, records the acknowledged state, crashes,
 * recovers, and verifies:
 *   1. every acknowledged (committed) operation is present;
 *   2. nothing beyond the acknowledged stream appears.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "db/minirocks/minirocks.hh"
#include "sim/rng.hh"
#include "wal/rig.hh"

#include "../support/crash_harness.hh"

using namespace bssd;
using campaign::reproLine;
using rigs::WalKind;
using rigs::walName;

namespace
{

class CrashMatrix
    : public ::testing::TestWithParam<std::tuple<WalKind, std::uint64_t>>
{};

} // namespace

TEST_P(CrashMatrix, RedisRecoversExactCommittedState)
{
    auto [kind, seed] = GetParam();
    auto rig = rigs::makeTinyRig(kind);
    db::miniredis::MiniRedis redis(*rig.log);

    sim::Rng rng(seed);
    std::map<std::string, std::string> expect;
    sim::Tick t = sim::msOf(1);
    const int ops = 120 + static_cast<int>(rng.nextBelow(200));
    for (int i = 0; i < ops; ++i) {
        std::string key = "k" + std::to_string(rng.nextBelow(40));
        if (rng.chance(0.8)) {
            std::string val = "v" + std::to_string(i) + "-" +
                              std::string(rng.nextBelow(120), 'x');
            t = redis.set(
                t, key,
                {reinterpret_cast<const std::uint8_t *>(val.data()),
                 val.size()});
            expect[key] = val;
        } else {
            t = redis.del(t, key);
            expect.erase(key);
        }
    }

    rig.log->crash(t);
    redis.recover();

    ASSERT_EQ(redis.keys(), expect.size())
        << reproLine("redis", kind, seed);
    for (const auto &[k, v] : expect) {
        std::optional<std::vector<std::uint8_t>> got;
        redis.get(0, k, &got);
        ASSERT_TRUE(got.has_value())
            << reproLine("redis", kind, seed) << " key " << k;
        ASSERT_EQ(std::string(got->begin(), got->end()), v)
            << reproLine("redis", kind, seed) << " key " << k;
    }
}

TEST_P(CrashMatrix, PgRecoversExactCommittedState)
{
    auto [kind, seed] = GetParam();
    auto rig = rigs::makeTinyRig(kind);
    db::minipg::MiniPg pg(*rig.log);

    sim::Rng rng(seed * 31 + 7);
    std::map<std::uint64_t, std::uint8_t> nodes;
    sim::Tick t = sim::msOf(1);
    const int ops = 100 + static_cast<int>(rng.nextBelow(150));
    for (int i = 0; i < ops; ++i) {
        std::uint64_t id = rng.nextBelow(30);
        if (rng.chance(0.75)) {
            auto tag = static_cast<std::uint8_t>(i);
            std::vector<std::uint8_t> payload(60, tag);
            t = pg.updateNode(t, id, payload);
            nodes[id] = tag;
        } else {
            t = pg.deleteNode(t, id);
            nodes.erase(id);
        }
    }

    rig.log->crash(t);
    pg.recover();

    ASSERT_EQ(pg.nodeCount(), nodes.size())
        << reproLine("pg", kind, seed);
    for (const auto &[id, tag] : nodes) {
        std::vector<std::uint8_t> got;
        pg.getNode(0, id, &got);
        ASSERT_EQ(got.size(), 60u)
            << reproLine("pg", kind, seed) << " node " << id;
        ASSERT_EQ(got[0], tag)
            << reproLine("pg", kind, seed) << " node " << id;
    }
}

TEST_P(CrashMatrix, RocksRecoversExactCommittedState)
{
    auto [kind, seed] = GetParam();
    auto rig = rigs::makeTinyRig(kind);
    db::minirocks::RocksConfig rcfg;
    rcfg.memtableBytes = 16 * sim::KiB; // force SST flushes mid-run
    rcfg.dataRegionOffset = sim::MiB + 512 * sim::KiB;
    rcfg.dataRegionBytes = sim::MiB;
    rcfg.manifestOffset = sim::MiB + 256 * sim::KiB;
    db::minirocks::MiniRocks db(*rig.log, rig.dataDevice(), rcfg);

    sim::Rng rng(seed * 17 + 3);
    std::map<std::string, std::string> expect;
    sim::Tick t = sim::msOf(1);
    const int ops = 150 + static_cast<int>(rng.nextBelow(250));
    for (int i = 0; i < ops; ++i) {
        std::string key = "key" + std::to_string(rng.nextBelow(50));
        if (rng.chance(0.85)) {
            std::string val =
                "value" + std::to_string(i) +
                std::string(rng.nextBelow(100), 'z');
            t = db.put(
                t, key,
                {reinterpret_cast<const std::uint8_t *>(val.data()),
                 val.size()});
            expect[key] = val;
        } else {
            t = db.del(t, key);
            expect.erase(key);
        }
    }

    rig.log->crash(t);
    db.recover();

    for (const auto &[k, v] : expect) {
        std::optional<std::vector<std::uint8_t>> got;
        db.get(0, k, &got);
        ASSERT_TRUE(got.has_value())
            << reproLine("rocks", kind, seed) << " key " << k;
        ASSERT_EQ(std::string(got->begin(), got->end()), v)
            << reproLine("rocks", kind, seed) << " key " << k;
    }
    // Nothing extra resurfaces.
    for (int i = 0; i < 50; ++i) {
        std::string key = "key" + std::to_string(i);
        if (expect.contains(key))
            continue;
        std::optional<std::vector<std::uint8_t>> got;
        db.get(0, key, &got);
        ASSERT_FALSE(got.has_value())
            << reproLine("rocks", kind, seed) << " key " << key;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWals, CrashMatrix,
    ::testing::Combine(::testing::Values(WalKind::block, WalKind::ba,
                                         WalKind::baSingle, WalKind::pm,
                                         WalKind::pmr),
                       ::testing::Values<std::uint64_t>(1, 2, 3)),
    [](const auto &info) {
        return std::string(walName(std::get<0>(info.param))) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

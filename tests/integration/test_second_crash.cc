/**
 * @file
 * Recovery that resumes: a store keeps serving after it recovers, so
 * writes acknowledged after one recovery must survive the next crash,
 * together with everything the first recovery brought back.
 *
 * Each case acknowledges 10 writes of 32 B, crashes and recovers,
 * acknowledges 3 more, then crashes and recovers again; all 13 must
 * read back. The crash matrix replays one cut on a fresh rig, so it
 * cannot see a log that restarts at its head after recovery.
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "db/minirocks/minirocks.hh"
#include "wal/rig.hh"

using namespace bssd;
using rigs::WalKind;
using rigs::walName;

namespace
{

constexpr int kFirst = 10;
constexpr int kTotal = 13;

/** The 32-byte value of write @p i. */
std::vector<std::uint8_t>
valueOf(int i)
{
    return std::vector<std::uint8_t>(32, static_cast<std::uint8_t>('a' + i));
}

/**
 * Drive the two crashes. @p write acknowledges write i no earlier than
 * the tick it is given and returns the ack; @p recover is the store's
 * recovery; @p readsBack tells whether write i is there.
 */
void
crashTwice(rigs::Rig &rig,
           const std::function<sim::Tick(int, sim::Tick)> &write,
           const std::function<void()> &recover,
           const std::function<bool(int)> &readsBack)
{
    auto lost = [&](int n) {
        std::string s;
        for (int i = 0; i < n; ++i)
            if (!readsBack(i))
                s += " " + std::to_string(i);
        return s;
    };
    sim::Tick t = sim::msOf(1);
    for (int i = 0; i < kFirst; ++i)
        t = write(i, t);
    rig.log->crash(t);
    recover();
    ASSERT_EQ(lost(kFirst), "") << "writes the first recovery lost";

    for (int i = kFirst; i < kTotal; ++i)
        t = write(i, t);
    rig.log->crash(t);
    recover();
    EXPECT_EQ(lost(kTotal), "") << "writes the second recovery lost";
}

class MiniRedisOnWal : public ::testing::TestWithParam<WalKind>
{};
class MiniPgOnWal : public ::testing::TestWithParam<WalKind>
{};
class MiniRocksOnWal : public ::testing::TestWithParam<WalKind>
{};

std::string
paramName(const ::testing::TestParamInfo<WalKind> &info)
{
    return walName(info.param);
}

} // namespace

TEST_P(MiniRedisOnWal, SecondCrashKeepsPostRecoveryWrites)
{
    auto rig = rigs::makeTinyRig(GetParam());
    db::miniredis::MiniRedis redis(*rig.log);
    auto key = [](int i) { return "k" + std::to_string(i); };
    crashTwice(
        rig,
        [&](int i, sim::Tick t) { return redis.set(t, key(i), valueOf(i)); },
        [&] { redis.recover(); },
        [&](int i) {
            std::optional<std::vector<std::uint8_t>> got;
            redis.get(0, key(i), &got);
            return got == valueOf(i);
        });
    EXPECT_EQ(redis.keys(), static_cast<std::size_t>(kTotal));
}

TEST_P(MiniPgOnWal, SecondCrashKeepsPostRecoveryWrites)
{
    auto rig = rigs::makeTinyRig(GetParam());
    db::minipg::MiniPg pg(*rig.log);
    crashTwice(
        rig,
        [&](int i, sim::Tick t) {
            return pg.updateNode(t, static_cast<std::uint64_t>(i),
                                 valueOf(i));
        },
        [&] { pg.recover(); },
        [&](int i) {
            std::vector<std::uint8_t> got;
            pg.getNode(0, static_cast<std::uint64_t>(i), &got);
            return got == valueOf(i);
        });
    EXPECT_EQ(pg.nodeCount(), static_cast<std::size_t>(kTotal));
}

TEST_P(MiniRocksOnWal, SecondCrashKeepsPostRecoveryWrites)
{
    auto rig = rigs::makeTinyRig(GetParam());
    // The crash matrix's layout: SSTs and the MANIFEST behind the tiny
    // rig's 1 MiB log region.
    db::minirocks::RocksConfig rcfg;
    rcfg.dataRegionOffset = sim::MiB + 512 * sim::KiB;
    rcfg.dataRegionBytes = sim::MiB;
    rcfg.manifestOffset = sim::MiB + 256 * sim::KiB;
    db::minirocks::MiniRocks db(*rig.log, rig.dataDevice(), rcfg);
    auto key = [](int i) { return "key" + std::to_string(i); };
    crashTwice(
        rig,
        [&](int i, sim::Tick t) { return db.put(t, key(i), valueOf(i)); },
        [&] { db.recover(); },
        [&](int i) {
            std::optional<std::vector<std::uint8_t>> got;
            db.get(0, key(i), &got);
            return got == valueOf(i);
        });
}

INSTANTIATE_TEST_SUITE_P(DurableWals, MiniRedisOnWal,
                         ::testing::Values(WalKind::block, WalKind::ba,
                                           WalKind::baSingle,
                                           WalKind::baRepl, WalKind::pm,
                                           WalKind::pmr,
                                           WalKind::baReplSingle),
                         paramName);
INSTANTIATE_TEST_SUITE_P(DurableWals, MiniPgOnWal,
                         ::testing::Values(WalKind::block, WalKind::ba,
                                           WalKind::baSingle,
                                           WalKind::baRepl, WalKind::pm,
                                           WalKind::pmr,
                                           WalKind::baReplSingle),
                         paramName);
INSTANTIATE_TEST_SUITE_P(DurableWals, MiniRocksOnWal,
                         ::testing::Values(WalKind::block, WalKind::ba,
                                           WalKind::pm),
                         paramName);

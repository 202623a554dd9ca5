/**
 * @file
 * Tests for minipg: transactional semantics and crash recovery over
 * each log-device configuration, and the pinned digest definition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "db/minipg/minipg.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/ssd_device.hh"
#include "wal/ba_wal.hh"
#include "wal/block_wal.hh"
#include "wal/rig.hh"

using namespace bssd;
using namespace bssd::db::minipg;

namespace
{

std::vector<std::uint8_t>
payload(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i);
    return v;
}

wal::BlockWalConfig
smallRegion()
{
    wal::BlockWalConfig c;
    c.regionBytes = 2 * sim::MiB;
    return c;
}

std::vector<std::uint8_t>
text(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** Nodes of the pinned digest dataset: ids at the byte and word
 *  boundaries, bytes >= 0x80 and an empty payload. */
std::map<std::uint64_t, std::vector<std::uint8_t>>
digestNodes()
{
    return {
        {0, {}},
        {1, text("one")},
        {255, {0x80, 0xff, 0x00}},
        {256, text("x")},
        {std::uint64_t(1) << 32, text("big")},
        {std::uint64_t(1) << 63, text("top bit")},
        {~std::uint64_t(0), text("max")},
    };
}

/** The pinned dataset, with updates and deletes that must not show. */
void
loadDigestDataset(MiniPg &pg)
{
    sim::Tick t = pg.addNode(0, 77, text("deleted"));
    for (const auto &[id, value] : digestNodes())
        t = pg.addNode(t, id, text("stale"));
    for (const auto &[id, value] : digestNodes())
        t = pg.updateNode(t, id, value);
    t = pg.deleteNode(t, 77);
    t = pg.addLink(t, {1, 0, 2}, text("l"));
    t = pg.addLink(t, {1, 0, 1}, {});
    t = pg.addLink(t, {0, 7, ~std::uint64_t(0)},
                   std::vector<std::uint8_t>{0x90});
    t = pg.addLink(t, {256, 1, 0}, text("z"));
    t = pg.addLink(t, {9, 9, 9}, text("deleted"));
    pg.deleteLink(t, {9, 9, 9});
}

} // namespace

TEST(MiniPg, NodeCrud)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    sim::Tick t = pg.addNode(0, 1, payload(64, 1));
    EXPECT_TRUE(pg.hasNode(1));
    std::vector<std::uint8_t> out;
    t = pg.getNode(t, 1, &out);
    EXPECT_EQ(out, payload(64, 1));
    t = pg.updateNode(t, 1, payload(32, 9));
    pg.getNode(t, 1, &out);
    EXPECT_EQ(out, payload(32, 9));
    t = pg.deleteNode(t, 1);
    EXPECT_FALSE(pg.hasNode(1));
    EXPECT_EQ(pg.committedTxns(), 3u);
}

TEST(MiniPg, LinkCrudAndRangeScan)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    sim::Tick t = 0;
    for (std::uint64_t i = 0; i < 5; ++i)
        t = pg.addLink(t, LinkKey{7, 1, i}, payload(16, 1));
    t = pg.addLink(t, LinkKey{7, 2, 0}, payload(16, 2));
    std::size_t n = 0;
    t = pg.getLinkList(t, 7, 1, &n);
    EXPECT_EQ(n, 5u);
    t = pg.countLinks(t, 7, 2, &n);
    EXPECT_EQ(n, 1u);
    t = pg.deleteLink(t, LinkKey{7, 1, 3});
    t = pg.countLinks(t, 7, 1, &n);
    EXPECT_EQ(n, 4u);
}

TEST(MiniPg, RecoveryReplaysCommittedTransactions)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    sim::Tick t = 0;
    for (std::uint64_t i = 0; i < 50; ++i)
        t = pg.addNode(t, i, payload(100, static_cast<std::uint8_t>(i)));
    log.crash(t);
    pg.recover();
    EXPECT_EQ(pg.nodeCount(), 50u);
    std::vector<std::uint8_t> out;
    pg.getNode(0, 17, &out);
    EXPECT_EQ(out, payload(100, 17));
}

TEST(MiniPg, RecoveryOnBaWalKeepsSyncedDropsWcResidue)
{
    // End to end on the 2B-SSD: committed transactions survive a
    // power cut; data still in the WC buffer does not resurface as a
    // committed transaction.
    ba::BaConfig bc;
    bc.bufferBytes = 256 * sim::KiB;
    ba::TwoBSsd dev(ssd::SsdConfig::tiny(), bc);
    wal::BaWalConfig wc;
    wc.regionBytes = 2 * sim::MiB;
    wc.halfBytes = 64 * sim::KiB;
    wal::BaWal log(dev, wc);
    MiniPg pg(log);

    sim::Tick t = sim::msOf(1);
    for (std::uint64_t i = 0; i < 30; ++i)
        t = pg.addNode(t, i, payload(80, static_cast<std::uint8_t>(i)));
    log.crash(t);
    pg.recover();
    EXPECT_EQ(pg.nodeCount(), 30u);
    EXPECT_EQ(pg.nextSequence(), 30u);
}

TEST(MiniPg, CheckpointTruncatesAndRecoveryStillWorks)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWalConfig cfg;
    cfg.regionBytes = 256 * sim::KiB; // force frequent checkpoints
    wal::BlockWal log(dev, cfg);
    MiniPg pg(log);
    sim::Tick t = 0;
    const std::uint64_t n = 1500;
    for (std::uint64_t i = 0; i < n; ++i)
        t = pg.updateNode(t, i % 40, payload(200, 3));
    EXPECT_GT(pg.checkpoints(), 0u);
    log.crash(t);
    pg.recover();
    EXPECT_EQ(pg.nodeCount(), 40u);
    EXPECT_EQ(pg.nextSequence(), n);
}

TEST(MiniPg, WriteCostDominatedByCommitOnSlowLog)
{
    // A read costs CPU only; a write additionally pays the log commit.
    ssd::SsdDevice dev(ssd::SsdConfig::dcSsd());
    wal::BlockWal log(dev, {});
    MiniPg pg(log);
    sim::Tick r0 = 0;
    sim::Tick r1 = pg.getNode(r0, 1);
    sim::Tick w1 = pg.addNode(r1, 1, payload(64, 1));
    EXPECT_GT(w1 - r1, 2 * (r1 - r0));
}

TEST(MiniPgTxn, CommitMakesAllOpsVisibleAtomically)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);

    auto txn = pg.begin();
    sim::Tick t = txn.addNode(0, 1, payload(32, 1));
    t = txn.addLink(t, LinkKey{1, 0, 2}, payload(16, 2));
    t = txn.addNode(t, 2, payload(32, 3));
    // Nothing visible before commit.
    EXPECT_FALSE(pg.hasNode(1));
    EXPECT_FALSE(pg.hasLink(LinkKey{1, 0, 2}));
    EXPECT_EQ(pg.committedTxns(), 0u);

    t = txn.commit(t);
    EXPECT_TRUE(pg.hasNode(1));
    EXPECT_TRUE(pg.hasNode(2));
    EXPECT_TRUE(pg.hasLink(LinkKey{1, 0, 2}));
    EXPECT_EQ(pg.committedTxns(), 1u); // ONE commit for three ops
}

TEST(MiniPgTxn, AbortDiscardsEverything)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    auto txn = pg.begin();
    txn.addNode(0, 9, payload(8, 1));
    txn.abort();
    EXPECT_FALSE(pg.hasNode(9));
    EXPECT_EQ(pg.committedTxns(), 0u);
}

TEST(MiniPgTxn, CrashBeforeCommitDropsWholeTransaction)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    sim::Tick t = pg.addNode(0, 100, payload(16, 5)); // committed
    auto txn = pg.begin();
    t = txn.addNode(t, 101, payload(16, 6));
    t = txn.addNode(t, 102, payload(16, 7));
    // Crash with the transaction open (never committed).
    log.crash(t);
    pg.recover();
    EXPECT_TRUE(pg.hasNode(100));
    EXPECT_FALSE(pg.hasNode(101));
    EXPECT_FALSE(pg.hasNode(102));
}

TEST(MiniPgTxn, CommittedTransactionReplaysAtomically)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    auto txn = pg.begin();
    sim::Tick t = txn.addNode(0, 1, payload(24, 1));
    t = txn.deleteNode(t, 1);
    t = txn.addNode(t, 2, payload(24, 2));
    t = txn.addLink(t, LinkKey{2, 3, 4}, payload(8, 3));
    t = txn.deleteLink(t, LinkKey{2, 3, 4});
    t = txn.commit(t);
    log.crash(t);
    pg.recover();
    EXPECT_FALSE(pg.hasNode(1)); // add then delete within the txn
    EXPECT_TRUE(pg.hasNode(2));
    EXPECT_FALSE(pg.hasLink(LinkKey{2, 3, 4}));
}

TEST(MiniPgTxn, EmptyCommitIsFreeAndOpsAfterFinishFatal)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    auto txn = pg.begin();
    EXPECT_EQ(txn.commit(100), 100u);
    EXPECT_THROW(txn.addNode(0, 1, payload(8, 1)), sim::SimFatal);
    EXPECT_THROW(txn.commit(0), sim::SimFatal);
}

TEST(MiniPgTxn, TransactionCommitCheaperThanIndividualCommits)
{
    // The whole point of batching: one log record + one sync instead
    // of N.
    ssd::SsdDevice dev(ssd::SsdConfig::dcSsd());
    wal::BlockWal log(dev, {});
    MiniPg pg(log);
    sim::Tick t0 = 0, t = t0;
    auto txn = pg.begin();
    for (std::uint64_t i = 0; i < 10; ++i)
        t = txn.addNode(t, i, payload(64, 1));
    t = txn.commit(t);
    sim::Tick batched = t - t0;

    ssd::SsdDevice dev2(ssd::SsdConfig::dcSsd());
    wal::BlockWal log2(dev2, {});
    MiniPg pg2(log2);
    sim::Tick u0 = 0, u = u0;
    for (std::uint64_t i = 0; i < 10; ++i)
        u = pg2.addNode(u, i, payload(64, 1));
    // bssd-lint: allow(hyg-ticks-literal) dimensionless speedup factor
    EXPECT_LT(batched * 2, u - u0);
}

TEST(MiniPg, ContentHashDefinitionIsPinned)
{
    // Recorded with the std::map-based node sort the sorted-vector one
    // replaced; a change here changes every recorded state digest.
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    loadDigestDataset(pg);
    EXPECT_EQ(pg.contentHash(), 0xe9824d8d06eb71c0ull);
}

TEST(MiniPg, NodeVisitorsSeeEveryNodeOnce)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, smallRegion());
    MiniPg pg(log);
    loadDigestDataset(pg);
    const auto want = digestNodes();

    auto next = want.begin();
    pg.forEachNodeSorted(
        [&](std::uint64_t id, std::span<const std::uint8_t> value) {
            ASSERT_NE(next, want.end());
            EXPECT_EQ(id, next->first);
            EXPECT_TRUE(std::ranges::equal(value, next->second));
            ++next;
        });
    EXPECT_EQ(next, want.end());

    std::map<std::uint64_t, std::vector<std::uint8_t>> seen;
    pg.forEachNodeUnordered(
        [&](std::uint64_t id, std::span<const std::uint8_t> value) {
            EXPECT_TRUE(seen.emplace(id, std::vector<std::uint8_t>(
                                             value.begin(), value.end()))
                            .second)
                << "visited twice: " << id;
        });
    EXPECT_EQ(seen, want);
}

TEST(MiniPg, UndoLogRecoveryMatchesAcknowledgedOps)
{
    // One seeded stream of node and link operations and multi-op
    // transactions, on the GC preset with a log region small enough to
    // checkpoint every few dozen commits, cut by a power loss at
    // seeded durability hits. A cut can land after an operation
    // changed the store but before its record is durable, so recovery
    // must roll the undo logs back to the last checkpoint and redo the
    // log: the result is the acknowledged state, or that state plus
    // the operation in flight, both kept here in plain maps. A second
    // recovery must land on the same state.
    using Nodes = std::map<std::uint64_t, std::vector<std::uint8_t>>;
    using Links = std::map<LinkKey, std::vector<std::uint8_t>>;
    rigs::RigSpec spec = rigs::gcSpec(rigs::WalKind::block);
    spec.regionBytes = 8 * sim::KiB;

    auto matches = [](const MiniPg &pg, const Nodes &nodes,
                      const Links &links) {
        if (pg.nodeCount() != nodes.size() ||
            pg.linkCount() != links.size()) {
            return false;
        }
        Nodes got;
        pg.forEachNodeSorted(
            [&](std::uint64_t id, std::span<const std::uint8_t> v) {
                got.emplace(id, std::vector<std::uint8_t>(v.begin(),
                                                          v.end()));
            });
        if (got != nodes)
            return false;
        for (const auto &[key, value] : links) {
            std::vector<std::uint8_t> out;
            pg.getLink(0, key, &out);
            if (!pg.hasLink(key) || out != value)
                return false;
        }
        return true;
    };

    struct Outcome
    {
        std::uint64_t hits = 0;
        std::uint64_t checkpoints = 0;
    };
    // Run the stream on a fresh rig, cut at durability hit @p cut
    // unless @p cut is negative; returns the hits of an uncut run.
    auto run = [&](std::int64_t cut) {
        auto rig = rigs::makeRig(spec);
        MiniPg pg(*rig.log);
        sim::FaultInjector inj;
        if (cut >= 0)
            inj.armCrashAtHit(static_cast<std::uint64_t>(cut));
        rig.installFaultInjector(&inj);
        sim::Rng rng(2024);
        auto anyPayload = [&] {
            return payload(rng.nextBelow(48),
                           static_cast<std::uint8_t>(rng.next()));
        };
        auto anyLink = [&] {
            return LinkKey{rng.nextBelow(6),
                           static_cast<std::uint32_t>(rng.nextBelow(2)),
                           rng.nextBelow(6)};
        };
        Nodes nodes;
        Links links;
        Nodes nextNodes;
        Links nextLinks;
        sim::Tick t = sim::msOf(1);
        try {
            for (int op = 0; op < 1500; ++op) {
                nextNodes = nodes;
                nextLinks = links;
                const std::uint64_t id = rng.nextBelow(24);
                switch (rng.nextBelow(6)) {
                  case 0:
                  case 1: {
                    const auto v = anyPayload();
                    nextNodes[id] = v;
                    t = rng.chance(0.5) ? pg.addNode(t, id, v)
                                        : pg.updateNode(t, id, v);
                    break;
                  }
                  case 2:
                    nextNodes.erase(id);
                    t = pg.deleteNode(t, id);
                    break;
                  case 3: {
                    const LinkKey key = anyLink();
                    if (rng.chance(0.7)) {
                        const auto v = anyPayload();
                        nextLinks[key] = v;
                        t = pg.addLink(t, key, v);
                    } else {
                        nextLinks.erase(key);
                        t = pg.deleteLink(t, key);
                    }
                    break;
                  }
                  default: {
                    // Ids and links that single ops also hit, so one
                    // commit can change an item twice.
                    auto txn = pg.begin();
                    Nodes n = nodes;
                    Links l = links;
                    const std::uint64_t ops = 1 + rng.nextBelow(4);
                    for (std::uint64_t i = 0; i < ops; ++i) {
                        const std::uint64_t tid = rng.nextBelow(24);
                        const LinkKey key = anyLink();
                        const auto v = anyPayload();
                        switch (rng.nextBelow(4)) {
                          case 0:
                            t = txn.updateNode(t, tid, v);
                            n[tid] = v;
                            break;
                          case 1:
                            t = txn.deleteNode(t, tid);
                            n.erase(tid);
                            break;
                          case 2:
                            t = txn.addLink(t, key, v);
                            l[key] = v;
                            break;
                          default:
                            t = txn.deleteLink(t, key);
                            l.erase(key);
                            break;
                        }
                    }
                    if (rng.chance(0.2)) {
                        txn.abort();
                    } else {
                        nextNodes = std::move(n);
                        nextLinks = std::move(l);
                        t = txn.commit(t);
                    }
                    break;
                  }
                }
                nodes = nextNodes;
                links = nextLinks;
            }
        } catch (const sim::PowerCut &) {
        }
        if (cut < 0)
            return Outcome{inj.totalHits(), pg.checkpoints()};
        EXPECT_TRUE(inj.cutFired());
        inj.disarm();
        for (int recovery = 0; recovery < 2; ++recovery) {
            rig.log->crash(t);
            pg.recover();
            EXPECT_TRUE(matches(pg, nodes, links) ||
                        matches(pg, nextNodes, nextLinks))
                << "recovery " << recovery;
        }
        return Outcome{0, pg.checkpoints()};
    };

    const Outcome uncut = run(-1);
    ASSERT_GT(uncut.checkpoints, 10u);
    // A cut before the first checkpoint (the image is the empty
    // store), then cuts at seeded hits across the whole stream.
    EXPECT_EQ(run(40).checkpoints, 0u);
    sim::Rng cuts(7);
    for (int i = 0; i < 40; ++i) {
        const auto cut = static_cast<std::int64_t>(cuts.nextBelow(uncut.hits));
        SCOPED_TRACE("cut at hit " + std::to_string(cut));
        run(cut);
    }
}

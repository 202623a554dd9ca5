/**
 * @file
 * Tests for miniredis: command semantics, AOF replay, AOF rewrite,
 * undo-log recovery across rewrites, and the pinned digest definition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "db/miniredis/miniredis.hh"
#include "sim/rng.hh"
#include "ssd/ssd_device.hh"
#include "wal/ba_wal.hh"
#include "wal/block_wal.hh"

using namespace bssd;
using namespace bssd::db::miniredis;

namespace
{

std::vector<std::uint8_t>
val(const std::string &s)
{
    return {s.begin(), s.end()};
}

wal::BlockWalConfig
tinyAof()
{
    wal::BlockWalConfig c;
    c.regionBytes = 512 * sim::KiB;
    return c;
}

using Dataset = std::map<std::string, std::vector<std::uint8_t>>;

/** contentHash() of a fresh store loaded with @p data. */
std::uint64_t
hashOf(const Dataset &data)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    sim::Tick t = 0;
    for (const auto &[key, value] : data)
        t = r.set(t, key, value);
    return r.contentHash();
}

/**
 * A small fixed dataset with every key shape the sorted iterator must
 * order correctly: keys sharing their first 8 bytes, keys shorter and
 * longer than 8 bytes, keys that are prefixes of others (also inside
 * the first 8 bytes, with and without a NUL after), bytes >= 0x80,
 * an empty key and an empty value.
 */
Dataset
digestDataset()
{
    using namespace std::string_literals;
    return {
        {"prefix00a", val("A")},
        {"prefix00b", val("B")},
        {"prefix00", {}},
        {"a", val("1")},
        {"a\0"s, val("nul")},
        {"a\0b"s, val("nul-b")},
        {"k7", val("seven")},
        {"abc", val("x")},
        {"abcdefghij", val("long")},
        {"\x80hi", {0x80, 0xff, 0x00}},
        {"z\xffz", val("hi")},
        {"", val("empty key")},
    };
}

/** The same store every way the tests build it: each key once, then
 *  the overwrites and deletes that must not show in the digest. */
void
loadDigestDataset(MiniRedis &r)
{
    sim::Tick t = 0;
    t = r.set(t, "gone", val("deleted"));
    for (const auto &[key, value] : digestDataset())
        t = r.set(t, key, val("stale " + key));
    for (const auto &[key, value] : digestDataset())
        t = r.set(t, key, value);
    r.del(t, "gone");
}

} // namespace

TEST(MiniRedis, SetGetDel)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    sim::Tick t = r.set(0, "name", val("redis"));
    std::optional<std::vector<std::uint8_t>> out;
    t = r.get(t, "name", &out);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, val("redis"));
    t = r.del(t, "name");
    r.get(t, "name", &out);
    EXPECT_FALSE(out.has_value());
}

TEST(MiniRedis, IncrSequence)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    sim::Tick t = 0;
    std::optional<std::int64_t> v;
    for (int i = 1; i <= 5; ++i) {
        t = r.incr(t, "counter", &v);
        EXPECT_EQ(v, i);
    }
    std::optional<std::vector<std::uint8_t>> out;
    r.get(t, "counter", &out);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, val("5"));
}

TEST(MiniRedis, IncrRejectsNonIntegers)
{
    // Redis answers INCR on a value that is not wholly a decimal int64,
    // or whose increment would overflow, with an error: the key keeps
    // its value, the AOF gets nothing, and the command costs what a
    // GET of the key costs.
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    const std::vector<std::string> bad = {"12abc", "abc", "",
                                          "9223372036854775807"};
    sim::Tick t = 0;
    for (std::size_t i = 0; i < bad.size(); ++i)
        t = r.set(t, "bad" + std::to_string(i), val(bad[i]));
    t = r.set(t, "neg", val("-5"));
    t = r.set(t, "edge", val("9223372036854775806"));

    for (std::size_t i = 0; i < bad.size(); ++i) {
        const std::string key = "bad" + std::to_string(i);
        const std::uint64_t appended = aof.bytesAppended();
        std::optional<std::int64_t> got = 0;
        const sim::Tick done = r.incr(t, key, &got);
        EXPECT_FALSE(got.has_value()) << '"' << bad[i] << '"';
        EXPECT_EQ(done, r.get(t, key)) << '"' << bad[i] << '"';
        EXPECT_EQ(aof.bytesAppended(), appended) << '"' << bad[i] << '"';
        std::optional<std::vector<std::uint8_t>> out;
        t = r.get(done, key, &out);
        EXPECT_EQ(out, val(bad[i]));
    }
    std::optional<std::int64_t> got;
    t = r.incr(t, "neg", &got);
    EXPECT_EQ(got, -4);
    t = r.incr(t, "edge", &got);
    EXPECT_EQ(got, std::numeric_limits<std::int64_t>::max());

    // Recovery replays the SETs and the two INCRs that succeeded.
    aof.crash(t);
    r.recover();
    std::optional<std::vector<std::uint8_t>> out;
    for (std::size_t i = 0; i < bad.size(); ++i) {
        r.get(0, "bad" + std::to_string(i), &out);
        EXPECT_EQ(out, val(bad[i]));
    }
    r.get(0, "neg", &out);
    EXPECT_EQ(out, val("-4"));
    r.get(0, "edge", &out);
    EXPECT_EQ(out, val("9223372036854775807"));
}

TEST(MiniRedis, AofReplayRestoresDataset)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    sim::Tick t = 0;
    for (int i = 0; i < 40; ++i)
        t = r.set(t, "k" + std::to_string(i), val("v" + std::to_string(i)));
    t = r.del(t, "k5");
    aof.crash(t);
    r.recover();
    EXPECT_EQ(r.keys(), 39u);
    EXPECT_FALSE(r.exists("k5"));
    std::optional<std::vector<std::uint8_t>> out;
    r.get(0, "k17", &out);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, val("v17"));
}

TEST(MiniRedis, AofRewriteCompactsAndRecovers)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWalConfig cfg;
    cfg.regionBytes = 64 * sim::KiB; // rewrite early
    wal::BlockWal aof(dev, cfg);
    MiniRedis r(aof);
    sim::Tick t = 0;
    for (int i = 0; i < 900; ++i)
        t = r.set(t, "k" + std::to_string(i % 25),
                  val(std::string(100, 'x')));
    EXPECT_GT(r.aofRewrites(), 0u);
    aof.crash(t);
    r.recover();
    EXPECT_EQ(r.keys(), 25u);
}

TEST(MiniRedis, SingleBufferBaWalEndToEnd)
{
    // The paper's Redis port: whole BA-buffer as one AOF window, no
    // double buffering (single-threaded design respected).
    ba::BaConfig bc;
    bc.bufferBytes = 128 * sim::KiB;
    ba::TwoBSsd dev(ssd::SsdConfig::tiny(), bc);
    wal::BaWalConfig wc;
    wc.regionBytes = 512 * sim::KiB;
    wc.doubleBuffer = false;
    wal::BaWal aof(dev, wc);
    MiniRedis r(aof);
    sim::Tick t = sim::msOf(1);
    for (int i = 0; i < 200; ++i)
        t = r.set(t, "key" + std::to_string(i), val(std::string(80, 'y')));
    aof.crash(t);
    r.recover();
    EXPECT_EQ(r.keys(), 200u);
}

TEST(MiniRedis, CommandCostIncludesDurability)
{
    ssd::SsdDevice dev(ssd::SsdConfig::dcSsd());
    wal::BlockWal aof(dev, {});
    MiniRedis r(aof);
    sim::Tick t0 = 0;
    sim::Tick t1 = r.set(t0, "a", val("1"));
    // SET on a DC-SSD AOF: command CPU + write + fsync: tens of us.
    EXPECT_GT(t1 - t0, sim::usOf(20));
    sim::Tick t2 = r.get(t1, "a");
    // Reads skip the log entirely: command CPU only.
    EXPECT_LT(t2 - t1, sim::usOf(35));
    EXPECT_LT(2 * (t2 - t1), t1 - t0);
}

TEST(MiniRedis, ContentHashDefinitionIsPinned)
{
    // Recorded with the std::map-based digest the sorted-vector one
    // replaced; a change here changes every recorded state digest.
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    loadDigestDataset(r);
    EXPECT_EQ(r.contentHash(), 0xbe634ff825f0490aull);
    EXPECT_EQ(hashOf(digestDataset()), r.contentHash());
    EXPECT_EQ(hashOf({}), 14695981039346656037ull); // FNV-1a basis
}

TEST(MiniRedis, SortedVisitFollowsStringViewOrder)
{
    // The fixed dataset plus random keys over a tiny alphabet, so many
    // keys tie on their first 8 bytes or are prefixes of each other.
    Dataset want = digestDataset();
    sim::Rng rng(3);
    const char alphabet[] = {'\0', 'a', 'b', '\x7f', '\x80', '\xff'};
    for (int i = 0; i < 3000; ++i) {
        std::string key(rng.nextBelow(13), '\0');
        for (char &c : key)
            c = alphabet[rng.nextBelow(sizeof(alphabet))];
        want[key] = val(std::to_string(i));
    }
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    sim::Tick t = 0;
    for (const auto &[key, value] : want)
        t = r.set(t, key, value);
    ASSERT_EQ(r.keys(), want.size());

    std::map<std::string_view, const std::vector<std::uint8_t> *> order;
    for (const auto &[key, value] : want)
        order.emplace(key, &value);
    auto next = order.begin();
    r.forEachSorted([&](std::string_view key,
                        std::span<const std::uint8_t> value) {
        ASSERT_NE(next, order.end());
        EXPECT_EQ(key, next->first);
        EXPECT_TRUE(std::ranges::equal(value, *next->second));
        ++next;
    });
    EXPECT_EQ(next, order.end());

    Dataset seen;
    r.forEachUnordered([&](std::string_view key,
                           std::span<const std::uint8_t> value) {
        EXPECT_TRUE(seen.emplace(key, std::vector<std::uint8_t>(
                                          value.begin(), value.end()))
                        .second)
            << "visited twice: " << key;
    });
    EXPECT_EQ(seen, want);
}

namespace
{

/** FNV-1a over each key's bytes, then its value's, in map order: the
 *  digest contentHash() must compute. */
std::uint64_t
fnvFold(const Dataset &data)
{
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint8_t b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    for (const auto &[key, value] : data) {
        for (const char c : key)
            mix(static_cast<std::uint8_t>(c));
        for (const std::uint8_t b : value)
            mix(b);
    }
    return h;
}

/** forEachSorted() visits exactly @p want, in its order, and
 *  contentHash() is the FNV-1a fold over it. */
void
expectSortedVisit(const MiniRedis &r, const Dataset &want)
{
    auto next = want.begin();
    std::size_t visited = 0;
    r.forEachSorted([&](std::string_view key,
                        std::span<const std::uint8_t> value) {
        ++visited;
        if (next == want.end())
            return;
        EXPECT_EQ(key, next->first);
        EXPECT_TRUE(std::ranges::equal(value, next->second)) << key;
        ++next;
    });
    EXPECT_EQ(visited, want.size());
    EXPECT_EQ(r.contentHash(), fnvFold(want));
}

} // namespace

TEST(MiniRedis, SortedVisitAtScaleMatchesMapModel)
{
    // Enough keys that the digest's radix sort runs several passes
    // before ranges fall to the full-key compare: random keys of 0..12
    // bytes over an alphabet with NUL and bytes >= 0x80 (so short keys
    // tie with their NUL-padded prefixes), the empty key, and two
    // families that tie on all 8 prefix bytes: up to 259 keys behind
    // one 8-byte prefix (a range whose every byte agrees), and up to
    // 258 behind one 7-byte prefix, split by their 8th byte into six
    // tied buckets. SETs grow and shrink values, so keys move between
    // records; DELs hand records back; the AOF region is small enough
    // to rewrite several times, and a crash rolls the undo log back.
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    Dataset model;
    std::vector<std::string> keys;
    sim::Rng rng(25);
    sim::Tick t = 0;
    const char alphabet[] = {'\0', 'a', 'k', '\x7f', '\x80', '\xff'};
    auto letters = [&](std::size_t n) {
        std::string s(n, '\0');
        for (char &c : s)
            c = alphabet[rng.nextBelow(sizeof(alphabet))];
        return s;
    };
    auto set = [&](const std::string &key) {
        std::vector<std::uint8_t> value(rng.nextBelow(121));
        for (auto &b : value)
            b = static_cast<std::uint8_t>(rng.next());
        t = r.set(t, key, value);
        model[key] = value;
        keys.push_back(key);
    };
    using namespace std::string_literals;
    set(""s);
    for (int i = 1; i <= 28000; ++i) {
        const double roll = rng.nextDouble();
        if (roll < 0.65) {
            set(letters(rng.nextBelow(13)));
        } else if (roll < 0.7) {
            set("\xffshared\0"s + letters(rng.nextBelow(4)));
        } else if (roll < 0.75) {
            set("\x80" "common"s + letters(1) + letters(rng.nextBelow(3)));
        } else if (roll < 0.85) {
            const std::string &key = keys[rng.nextBelow(keys.size())];
            t = r.del(t, key);
            model.erase(key);
        } else {
            set(std::string(keys[rng.nextBelow(keys.size())]));
        }
        if (i % 7000 == 0) {
            expectSortedVisit(r, model);
            if (HasFailure())
                return;
        }
    }
    EXPECT_GT(model.size(), 10000u);
    EXPECT_GT(r.aofRewrites(), 1u);

    aof.crash(t);
    r.recover();
    ASSERT_EQ(r.keys(), model.size());
    expectSortedVisit(r, model);
}

TEST(MiniRedis, OverwritesAndReinsertsReuseRecords)
{
    // A store carves its records from its own blocks, and none at
    // construction. A SET whose value fits keeps the key's record, and
    // a DEL hands the record to the next key of its size; a value that
    // outgrows its record moves the key to a larger one and leaves the
    // old one to the next.
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    EXPECT_EQ(r.reservedBytes(), 0u);
    sim::Tick t = r.set(0, "key1", val(std::string(40, 'a')));
    const std::size_t one = r.reservedBytes();
    EXPECT_GE(one, 4u + 40u);
    t = r.set(t, "key1", val(std::string(20, 'b')));
    t = r.set(t, "key1", val(std::string(40, 'c')));
    EXPECT_EQ(r.reservedBytes(), one);
    t = r.del(t, "key1");
    t = r.set(t, "key2", val(std::string(40, 'd')));
    EXPECT_EQ(r.reservedBytes(), one);

    t = r.set(t, "key2", val(std::string(400, 'e')));
    const std::size_t grown = r.reservedBytes();
    EXPECT_GT(grown, one);
    t = r.set(t, "key3", val(std::string(40, 'f')));
    EXPECT_EQ(r.reservedBytes(), grown);

    std::optional<std::vector<std::uint8_t>> out;
    r.get(t, "key1", &out);
    EXPECT_FALSE(out.has_value());
    r.get(t, "key2", &out);
    EXPECT_EQ(out, val(std::string(400, 'e')));
    r.get(t, "key3", &out);
    EXPECT_EQ(out, val(std::string(40, 'f')));
}

TEST(MiniRedis, FlatIndexMatchesMapModel)
{
    // Seeded SET/DEL/GET over 4096 keys, 40 % DEL. For the first 4000
    // commands at most 8 keys are live, which the first 16 slots hold
    // at up to half load, so probe chains often run across the slot
    // array's end; after that the index grows past 4096 slots. Deletes
    // shift probe chains back and move the last entry into the hole.
    // Every command is checked against a std::map model; a second
    // store fed the same commands must scan its entries in the same
    // order.
    constexpr int commands = 24000;
    constexpr int churn = 4000;
    constexpr std::size_t churnKeys = 8;
    constexpr std::uint64_t keySpace = 4096;
    ssd::SsdDevice devA(ssd::SsdConfig::tiny()), devB(ssd::SsdConfig::tiny());
    wal::BlockWal aofA(devA, tinyAof()), aofB(devB, tinyAof());
    MiniRedis a(aofA), b(aofB);
    Dataset model;
    sim::Rng rng(41);
    sim::Tick ta = 0, tb = 0;
    std::size_t maxKeys = 0;

    auto keysInEntryOrder = [](const MiniRedis &r) {
        std::vector<std::string> keys;
        r.forEachUnordered([&](std::string_view key,
                               std::span<const std::uint8_t>) {
            keys.emplace_back(key);
        });
        return keys;
    };

    for (int i = 1; i <= commands; ++i) {
        const double roll = rng.nextDouble();
        const bool del = roll < 0.4;
        const bool set = !del && roll < 0.9;
        // Every third key is too long for the string's inline buffer.
        const std::uint64_t k = rng.nextBelow(keySpace);
        std::string key =
            "key" + std::to_string(k) + (k % 3 == 0 ? "-long-key-text" : "");
        // The churn deletes live keys, and overwrites one once 8 are.
        if (i <= churn && !model.empty() &&
            (del || (set && model.size() == churnKeys))) {
            key = std::next(model.begin(),
                            static_cast<std::ptrdiff_t>(
                                rng.nextBelow(model.size())))
                      ->first;
        }
        if (del) {
            ta = a.del(ta, key);
            tb = b.del(tb, key);
            model.erase(key);
        } else if (set) {
            std::vector<std::uint8_t> value(rng.nextBelow(41));
            for (auto &byte : value)
                byte = static_cast<std::uint8_t>(rng.next());
            ta = a.set(ta, key, value);
            tb = b.set(tb, key, value);
            model[key] = value;
        }
        maxKeys = std::max(maxKeys, model.size());

        ASSERT_EQ(a.keys(), model.size()) << "command " << i;
        const auto want = model.find(key);
        ASSERT_EQ(a.exists(key), want != model.end()) << key;
        std::optional<std::vector<std::uint8_t>> got;
        ta = a.get(ta, key, &got);
        if (want == model.end())
            ASSERT_FALSE(got.has_value()) << key;
        else
            ASSERT_EQ(got, want->second) << key;

        if (i % 1000 != 0)
            continue;
        for (const auto &[live, value] : model) {
            ta = a.get(ta, live, &got);
            ASSERT_EQ(got, value) << live << " at command " << i;
        }
        ASSERT_EQ(a.contentHash(), hashOf(model)) << "command " << i;
        Dataset seen;
        a.forEachUnordered([&](std::string_view visited,
                               std::span<const std::uint8_t> value) {
            EXPECT_TRUE(seen.emplace(visited, std::vector<std::uint8_t>(
                                                  value.begin(),
                                                  value.end()))
                            .second)
                << "visited twice: " << visited;
        });
        ASSERT_EQ(seen, model) << "command " << i;
        ASSERT_EQ(keysInEntryOrder(a), keysInEntryOrder(b))
            << "command " << i;
    }
    // More than 2048 live keys: the slots, doubled whenever more than
    // half full, went 16 -> 8192 at least.
    EXPECT_GT(maxKeys, 2048u);

    aofA.crash(ta);
    a.recover();
    ASSERT_EQ(a.keys(), model.size());
    for (const auto &[key, value] : model) {
        std::optional<std::vector<std::uint8_t>> got;
        a.get(0, key, &got);
        ASSERT_EQ(got, value) << key;
    }
    EXPECT_EQ(a.contentHash(), hashOf(model));
}

namespace
{

/** The cluster shard's AOF preset (single-buffered BA-WAL) with a
 *  region small enough that a few thousand commands rewrite it often. */
struct SmallBaAof
{
    static ba::BaConfig
    buffer()
    {
        ba::BaConfig bc;
        bc.bufferBytes = 64 * sim::KiB;
        return bc;
    }

    static wal::BaWalConfig
    log()
    {
        wal::BaWalConfig wc;
        wc.regionBytes = 32 * sim::KiB;
        wc.halfBytes = 4 * sim::KiB;
        wc.doubleBuffer = false;
        return wc;
    }

    ba::TwoBSsd dev{ssd::SsdConfig::tiny(), buffer()};
    wal::BaWal aof{dev, log()};
};

/** A power cut thrown from inside the AOF. */
struct CutInsideAof
{
};

/**
 * The AOF with switches that cut power inside the next append() or
 * truncate(), before the call reaches the log. A command cut at its
 * append has already changed the store but is certainly not durable;
 * a rewrite cut at its truncate follows a command that certainly is.
 * A third switch hides the durable suffix from the next recovery, so
 * the store shows the rewrite image its undo log restores.
 */
class CuttableAof final : public wal::LogDevice
{
  public:
    explicit CuttableAof(wal::LogDevice &log) : log_(log) {}

    bool cutAppend = false;
    bool cutTruncate = false;
    bool hideSuffix = false;

    sim::Tick
    append(sim::Tick now, std::span<const std::uint8_t> record) override
    {
        if (std::exchange(cutAppend, false))
            throw CutInsideAof{};
        return log_.append(now, record);
    }

    sim::Tick commit(sim::Tick now) override { return log_.commit(now); }

    void
    truncate(sim::Tick now) override
    {
        if (std::exchange(cutTruncate, false))
            throw CutInsideAof{};
        log_.truncate(now);
    }

    void crash(sim::Tick t) override { log_.crash(t); }

    std::vector<std::uint8_t>
    recoverContents() override
    {
        auto contents = log_.recoverContents();
        if (std::exchange(hideSuffix, false))
            contents.clear();
        return contents;
    }

    std::string name() const override { return log_.name(); }

    std::uint64_t
    bytesAppended() const override
    {
        return log_.bytesAppended();
    }

    std::uint64_t
    bytesToStore() const override
    {
        return log_.bytesToStore();
    }

    bool
    needsCheckpoint() const override
    {
        return log_.needsCheckpoint();
    }

    std::uint64_t
    recoveryChunkBytes() const override
    {
        return log_.recoveryChunkBytes();
    }

  private:
    wal::LogDevice &log_;
};

/** @p r holds exactly @p want, digest included. */
void
expectStoreEquals(const MiniRedis &r, const Dataset &want)
{
    ASSERT_EQ(r.keys(), want.size());
    for (const auto &[key, value] : want) {
        std::optional<std::vector<std::uint8_t>> got;
        r.get(0, key, &got);
        ASSERT_TRUE(got.has_value()) << key;
        EXPECT_EQ(*got, value) << key;
    }
    EXPECT_EQ(r.contentHash(), hashOf(want));
}

} // namespace

TEST(MiniRedis, UndoLogRecoveryMatchesAcknowledgedCommands)
{
    // Random SET/DEL/INCR over 32 keys with power cuts between
    // commands, inside a command's append and inside a rewrite. After
    // every recovery the store must equal the model of the durable
    // commands, digest included, and a recovery that sees no AOF
    // suffix must equal the model as of the last rewrite. Keys 24..31
    // hold decimal counters so INCR has something to count.
    SmallBaAof rig;
    CuttableAof aof(rig.aof);
    MiniRedis r(aof);
    Dataset model, image;
    sim::Rng rng(12);
    sim::Tick t = sim::msOf(1);

    // The cases an undo log can get wrong. Each counts when a power
    // cut lands later in the same rewrite interval (or on the case's
    // own command, cut at its append).
    enum Case
    {
        delPreRewrite,
        setThenDel,
        delThenReinsert,
        nCases
    };
    bool pending[nCases] = {};
    int covered[nCases] = {};
    int firstChangeCuts = 0, rewriteCuts = 0, crashesAfterRewrite = 0;
    int crashesAfterRecoveryWrites = 0, doubleRecoveries = 0;
    int imageRecoveries = 0;
    // Rewrite interval of each key's last change, insert and delete.
    std::map<std::string, std::uint64_t> changed, inserted, deleted;
    std::uint64_t sinceRewrite = 0, sinceRecovery = 0;
    bool recovered = false;

    for (int i = 0; i < 6000; ++i) {
        const std::uint64_t interval = r.aofRewrites();
        const std::uint64_t k = rng.nextBelow(32);
        const std::string key = "key" + std::to_string(k);
        const bool present = model.contains(key);
        const bool firstChange =
            !changed.contains(key) || changed[key] < interval;
        const double roll = rng.nextDouble();

        // The command, and the key's value once it is durable.
        std::optional<std::vector<std::uint8_t>> after;
        std::int64_t counter = 0;
        if (roll < 0.25 && present) {
            if (firstChange)
                pending[delPreRewrite] = true;
            if (inserted.contains(key) && inserted[key] == interval)
                pending[setThenDel] = true;
        } else if (k >= 24 && roll < 0.6) {
            if (present) {
                const std::string text(model[key].begin(),
                                       model[key].end());
                std::from_chars(text.data(), text.data() + text.size(),
                                counter);
            }
            after = val(std::to_string(++counter));
        } else {
            after = std::vector<std::uint8_t>(rng.nextBelow(97));
            for (auto &b : *after)
                b = static_cast<std::uint8_t>(rng.next());
            if (k >= 24)
                after = val(std::to_string(rng.nextBelow(1000)));
        }
        if (after && !present && deleted.contains(key) &&
            deleted[key] == interval) {
            pending[delThenReinsert] = true;
        }

        // Cut often in a rewrite interval's first commands, where most
        // keys still wait for their first change.
        const bool cutAppend = rng.chance(sinceRewrite < 32 ? 0.2 : 0.01);
        aof.cutAppend = cutAppend;
        aof.cutTruncate = rng.chance(0.25);
        bool cut = false;
        try {
            if (!after) {
                t = r.del(t, key);
            } else if (k >= 24 && roll < 0.6) {
                std::optional<std::int64_t> got;
                t = r.incr(t, key, &got);
                EXPECT_EQ(got, counter);
            } else {
                t = r.set(t, key, *after);
            }
        } catch (const CutInsideAof &) {
            cut = true;
        }
        aof.cutTruncate = false;
        const bool rewrote = r.aofRewrites() != interval;

        // A command cut at its append never reached the AOF; one cut
        // at the rewrite after it had already been committed.
        if (!cutAppend) {
            if (after) {
                if (!present)
                    inserted[key] = interval;
                model[key] = *after;
            } else {
                deleted[key] = interval;
                model.erase(key);
            }
            changed[key] = interval;
            ++sinceRecovery;
        } else if (firstChange) {
            ++firstChangeCuts;
        }
        ++sinceRewrite;
        if (rewrote) {
            image = model;
            std::fill(std::begin(pending), std::end(pending), false);
            sinceRewrite = 0;
            rewriteCuts += cut ? 1 : 0;
        }
        if (!cut && !(rewrote && rng.chance(0.5)) && !rng.chance(0.01))
            continue;

        for (int c = 0; c < nCases; ++c)
            covered[c] += pending[c] ? 1 : 0;
        crashesAfterRewrite += rewrote ? 1 : 0;
        crashesAfterRecoveryWrites += recovered && sinceRecovery > 0;
        // A rewrite cut ran its command to the end: the device clock
        // can be past the last acknowledgement.
        t = std::max(t, rig.dev.domain().now());
        aof.crash(t);
        if (rng.chance(0.3)) {
            aof.hideSuffix = true;
            r.recover();
            expectStoreEquals(r, image);
            if (HasFatalFailure())
                return;
            ++imageRecoveries;
        }
        r.recover();
        if (rng.chance(0.3)) {
            r.recover();
            ++doubleRecoveries;
        }
        expectStoreEquals(r, model);
        if (HasFatalFailure())
            return;
        recovered = true;
        sinceRecovery = 0;
    }
    expectStoreEquals(r, model);

    EXPECT_GE(r.aofRewrites(), 3u);
    EXPECT_GT(covered[delPreRewrite], 0);
    EXPECT_GT(covered[setThenDel], 0);
    EXPECT_GT(covered[delThenReinsert], 0);
    EXPECT_GT(firstChangeCuts, 0);
    EXPECT_GT(rewriteCuts, 0);
    EXPECT_GT(crashesAfterRewrite, 0);
    EXPECT_GT(crashesAfterRecoveryWrites, 0);
    EXPECT_GT(doubleRecoveries, 0);
    EXPECT_GT(imageRecoveries, 0);
    RecordProperty("rewrites", static_cast<int>(r.aofRewrites()));
    RecordProperty("first_change_cuts", firstChangeCuts);
}

TEST(MiniRedis, PreImageBlocksRecoverAcrossRewrites)
{
    // The undo log copies pre-images into fixed-size blocks, and a
    // record runs on across a block's end. Cover the records at those
    // ends: an empty value, a pre-image that exactly fills a block, one
    // that starts the next block, and a value larger than a block (the
    // block WAL takes records that big). Then overwrite and delete them
    // across several rewrites. Every round ends in a power cut, some
    // inside a command's append, and recovery must show the rewrite's
    // image (AOF suffix hidden) and the model of the durable commands,
    // also when it runs twice.
    constexpr std::size_t block = MiniRedis::undoBlockBytes;
    // "fill"'s pre-image is exactly one block.
    constexpr std::size_t fillBytes = block - MiniRedis::preImageBytes(4, 0);
    static_assert(MiniRedis::preImageBytes(4, fillBytes) == block);
    constexpr std::size_t bigBytes = block + block / 4;
    const std::size_t sizes[] = {0, 1, 100, fillBytes, bigBytes};

    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal log(dev, tinyAof());
    CuttableAof aof(log);
    MiniRedis r(aof);
    Dataset model, image;
    sim::Rng rng(21);
    sim::Tick t = sim::msOf(1);
    std::uint8_t round = 0;

    // SET @p key to @p bytes bytes; a SET cut at its append changed the
    // store but is not durable, so the model keeps the old value.
    auto set = [&](const std::string &key, std::size_t bytes,
                   bool cut = false) {
        std::vector<std::uint8_t> v(bytes);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<std::uint8_t>(round * 31 + i);
        aof.cutAppend = cut;
        try {
            t = r.set(t, key, v);
        } catch (const CutInsideAof &) {
            return;
        }
        model[key] = v;
    };
    auto del = [&](const std::string &key) {
        t = r.del(t, key);
        model.erase(key);
    };
    // Pad the AOF until the store rewrites it: the undo log restarts
    // empty and the dataset becomes the image recovery rolls back to.
    auto rewrite = [&] {
        const std::uint64_t before = r.aofRewrites();
        while (r.aofRewrites() == before)
            set("pad", 4096);
        EXPECT_EQ(r.undoBytes(), 0u);
        image = model;
    };
    auto crashAndRecover = [&] {
        t = std::max(t, dev.domain().now());
        aof.crash(t);
        aof.hideSuffix = true;
        r.recover();
        expectStoreEquals(r, image);
        r.recover();
        if (rng.chance(0.5))
            r.recover();
        expectStoreEquals(r, model);
    };

    set("fill", fillBytes);
    set("next", 100);
    set("big", bigBytes);
    set("empty", 0);
    rewrite();
    set("fill", 1);
    EXPECT_EQ(r.undoBytes(), block);
    set("next", 2);
    EXPECT_EQ(r.undoBytes(), block + MiniRedis::preImageBytes(4, 100));
    std::size_t logged = r.undoBytes();
    set("big", 3);
    logged += MiniRedis::preImageBytes(3, bigBytes);
    EXPECT_EQ(r.undoBytes(), logged);
    set("empty", 4);
    logged += MiniRedis::preImageBytes(5, 0);
    EXPECT_EQ(r.undoBytes(), logged);
    set("fresh", 5);
    logged += MiniRedis::preImageBytes(5, 0);
    EXPECT_EQ(r.undoBytes(), logged);
    // A second change of a key logs nothing more.
    set("fill", fillBytes);
    EXPECT_EQ(r.undoBytes(), logged);
    set("big", bigBytes, /*cut=*/true);
    crashAndRecover();
    if (HasFatalFailure())
        return;

    const std::string keys[] = {"fill", "next", "big", "empty", "fresh",
                                "k0", "k1", "k2"};
    for (round = 1; round <= 8; ++round) {
        rewrite();
        for (int i = 0; i < 12; ++i) {
            const std::string &key = keys[rng.nextBelow(std::size(keys))];
            if (rng.chance(0.3))
                del(key);
            else
                set(key, sizes[rng.nextBelow(std::size(sizes))]);
        }
        if (rng.chance(0.5))
            set(keys[rng.nextBelow(std::size(keys))],
                sizes[rng.nextBelow(std::size(sizes))], /*cut=*/true);
        crashAndRecover();
        if (HasFatalFailure())
            return;
    }
    EXPECT_GE(r.aofRewrites(), 9u);
}

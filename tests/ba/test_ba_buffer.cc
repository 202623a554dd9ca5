/**
 * @file
 * Unit tests for the BA-buffer: mapping table rules and posted-write
 * settlement semantics, including a property test of the posted-write
 * arena against a deque-of-vectors model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "ba/ba_buffer.hh"
#include "sim/rng.hh"

using namespace bssd;
using namespace bssd::ba;

namespace
{

constexpr std::uint32_t kPage = 4096;

BaConfig
smallCfg()
{
    BaConfig c;
    c.bufferBytes = 64 * sim::KiB;
    c.maxEntries = 4;
    return c;
}

} // namespace

TEST(BaMappingTable, AddLookupRemove)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 16 * kPage, 2 * kPage, kPage);
    auto e = buf.entry(1);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->startOffset, 0u);
    EXPECT_EQ(e->startLba, 16u * kPage);
    EXPECT_EQ(e->length, 2u * kPage);
    buf.removeEntry(1);
    EXPECT_FALSE(buf.entry(1).has_value());
}

TEST(BaMappingTable, DuplicateEidRejected)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 0, kPage, kPage);
    EXPECT_THROW(buf.addEntry(1, 2 * kPage, 8 * kPage, kPage, kPage),
                 BaError);
}

TEST(BaMappingTable, BufferOverlapRejected)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 0, 2 * kPage, kPage);
    EXPECT_THROW(buf.addEntry(2, kPage, 8 * kPage, kPage, kPage), BaError);
}

TEST(BaMappingTable, LbaOverlapRejected)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 0, 2 * kPage, kPage);
    EXPECT_THROW(buf.addEntry(2, 4 * kPage, kPage, kPage, kPage), BaError);
}

TEST(BaMappingTable, MisalignmentRejected)
{
    BaBuffer buf(smallCfg());
    EXPECT_THROW(buf.addEntry(1, 0, 0, 100, kPage), BaError);
    EXPECT_THROW(buf.addEntry(1, 7, 0, kPage, kPage), BaError);
    EXPECT_THROW(buf.addEntry(1, 0, 9, kPage, kPage), BaError);
    EXPECT_THROW(buf.addEntry(1, 0, 0, 0, kPage), BaError);
}

TEST(BaMappingTable, TableCapacityEnforced)
{
    BaBuffer buf(smallCfg()); // 4 entries max
    for (Eid e = 0; e < 4; ++e) {
        buf.addEntry(e, std::uint64_t(e) * kPage,
                     std::uint64_t(e + 10) * kPage, kPage, kPage);
    }
    EXPECT_EQ(buf.entryCount(), 4u);
    EXPECT_THROW(
        buf.addEntry(9, 5 * kPage, 50 * kPage, kPage, kPage), BaError);
    // Removing one frees a slot.
    buf.removeEntry(2);
    EXPECT_NO_THROW(
        buf.addEntry(9, 5 * kPage, 50 * kPage, kPage, kPage));
}

TEST(BaMappingTable, RangeBeyondBufferRejected)
{
    BaBuffer buf(smallCfg()); // 64 KiB buffer
    EXPECT_THROW(buf.addEntry(1, 60 * sim::KiB, 0, 2 * kPage, kPage),
                 BaError);
}

TEST(BaMappingTable, LbaPinnedQuery)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 16 * kPage, 2 * kPage, kPage);
    EXPECT_TRUE(buf.lbaPinned(16 * kPage, 1));
    EXPECT_TRUE(buf.lbaPinned(17 * kPage + 5, 10));
    EXPECT_TRUE(buf.lbaPinned(15 * kPage, 2 * kPage)); // straddles
    EXPECT_FALSE(buf.lbaPinned(18 * kPage, kPage));
    EXPECT_FALSE(buf.lbaPinned(0, 16 * kPage));
}

TEST(BaBufferData, PostedWriteInvisibleUntilSettled)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> d{1, 2, 3};
    buf.postWrite(1000, 10, d);
    std::vector<std::uint8_t> out(3, 0);
    buf.settleTo(999);
    buf.read(10, out);
    EXPECT_EQ(out, (std::vector<std::uint8_t>{0, 0, 0}));
    buf.settleTo(1000);
    buf.read(10, out);
    EXPECT_EQ(out, d);
}

TEST(BaBufferData, PowerLossKeepsArrivedDropsInFlight)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> a{0xaa}, b{0xbb};
    buf.postWrite(100, 0, a);
    buf.postWrite(200, 1, b);
    std::uint64_t lost = buf.powerLossAt(150);
    EXPECT_EQ(lost, 1u);
    std::vector<std::uint8_t> out(2);
    buf.read(0, out);
    EXPECT_EQ(out[0], 0xaa);
    EXPECT_EQ(out[1], 0x00);
    EXPECT_EQ(buf.pendingBytes(), 0u);
}

TEST(BaBufferData, SettlementAppliesInOrder)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> a{0x01}, b{0x02};
    buf.postWrite(100, 0, a);
    buf.postWrite(150, 0, b); // same byte, later write wins
    buf.settleTo(200);
    std::vector<std::uint8_t> out(1);
    buf.read(0, out);
    EXPECT_EQ(out[0], 0x02);
}

TEST(BaBufferData, DeviceWriteIsImmediate)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> d{9, 9};
    buf.deviceWrite(100, d);
    std::vector<std::uint8_t> out(2);
    buf.read(100, out);
    EXPECT_EQ(out, d);
}

TEST(BaBufferData, OutOfRangeAccessRejected)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> d(10);
    EXPECT_THROW(buf.postWrite(0, 64 * sim::KiB - 5, d), BaError);
    EXPECT_THROW(buf.deviceWrite(64 * sim::KiB - 5, d), BaError);
    std::vector<std::uint8_t> out(10);
    EXPECT_THROW(buf.read(64 * sim::KiB - 5, out), BaError);
    EXPECT_THROW(buf.span(64 * sim::KiB - 5, 10), BaError);
}

TEST(BaBufferData, RestoreReplacesEverything)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(3, 0, 8 * kPage, kPage, kPage);
    std::vector<std::uint8_t> image(64 * sim::KiB, 0x5a);
    std::vector<MapEntry> table{
        MapEntry{7, kPage, 32 * kPage, kPage, true}};
    buf.restore(image, table);
    EXPECT_FALSE(buf.entry(3).has_value());
    ASSERT_TRUE(buf.entry(7).has_value());
    std::vector<std::uint8_t> out(4);
    buf.read(0, out);
    EXPECT_EQ(out[0], 0x5a);
}

namespace
{

/** The posted-write queue as a deque of per-write byte vectors, which
 *  BaBuffer's arena must behave exactly like. */
struct DequeModel
{
    struct Write
    {
        sim::Tick arrival;
        std::uint64_t offset;
        std::vector<std::uint8_t> data;
    };

    std::vector<std::uint8_t> mem;
    std::deque<Write> queue;

    void
    settleTo(sim::Tick t)
    {
        while (!queue.empty() && queue.front().arrival <= t) {
            const Write &w = queue.front();
            std::copy(w.data.begin(), w.data.end(),
                      mem.begin() + static_cast<std::ptrdiff_t>(w.offset));
            queue.pop_front();
        }
    }

    std::uint64_t
    pendingBytes() const
    {
        std::uint64_t n = 0;
        for (const Write &w : queue)
            n += w.data.size();
        return n;
    }

    std::uint64_t
    powerLossAt(sim::Tick t, sim::Tick dropAfter)
    {
        settleTo(std::min(t, dropAfter));
        const std::uint64_t lost = pendingBytes();
        queue.clear();
        return lost;
    }
};

} // namespace

TEST(BaBufferData, PostedQueueMatchesDequeModel)
{
    // Random posted writes of 1 B to 70 KiB over overlapping offsets,
    // settled at random ticks (arrivals are not monotonic, so a late
    // write can hold back earlier-arriving ones behind it), with power
    // losses in between, with and without a posted-drop window.
    BaConfig cfg;
    cfg.bufferBytes = 256 * sim::KiB;
    constexpr std::uint64_t kMaxWrite = 70 * sim::KiB;
    // Steps advance up to kStep; a write arrives up to kFlight after
    // it is posted; a settle lands within kLag of the current tick,
    // either side.
    constexpr sim::Tick kStep = sim::nsOf(200);
    constexpr sim::Tick kFlight = sim::usOf(2);
    constexpr sim::Tick kLag = sim::usOf(1);
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        sim::Rng rng(seed);
        BaBuffer buf(cfg);
        DequeModel model;
        model.mem.assign(cfg.bufferBytes, 0);
        std::vector<std::uint8_t> out(cfg.bufferBytes);
        std::uint64_t largest = 0;
        sim::Tick now = 0;
        for (int step = 0; step < 3000; ++step) {
            now += rng.nextBelow(kStep);
            const std::uint64_t op = rng.nextBelow(100);
            if (op < 60) {
                const std::uint64_t len =
                    rng.nextBelow(8) == 0 ? 1 + rng.nextBelow(kMaxWrite)
                                          : 1 + rng.nextBelow(256);
                const std::uint64_t off =
                    rng.nextBelow(cfg.bufferBytes - len + 1);
                std::vector<std::uint8_t> data(len);
                for (auto &b : data)
                    b = static_cast<std::uint8_t>(rng.next());
                const sim::Tick arrival = now + rng.nextBelow(kFlight);
                buf.postWrite(arrival, off, data);
                model.queue.push_back({arrival, off, std::move(data)});
                largest = std::max(largest, len);
            } else if (op < 95) {
                const sim::Tick ahead = now + rng.nextBelow(kFlight);
                const sim::Tick t = ahead > kLag ? ahead - kLag : 0;
                buf.settleTo(t);
                model.settleTo(t);
            } else {
                const sim::Tick back = rng.nextBelow(kLag);
                const sim::Tick drop =
                    rng.nextBelow(2) ? sim::maxTick
                                     : (now > back ? now - back : 0);
                ASSERT_EQ(buf.powerLossAt(now, drop),
                          model.powerLossAt(now, drop))
                    << "seed " << seed << " step " << step;
            }
            ASSERT_EQ(buf.pendingBytes(), model.pendingBytes())
                << "seed " << seed << " step " << step;
            if (buf.pendingBytes() == 0) {
                ASSERT_EQ(buf.arenaBytes(), 0u)
                    << "seed " << seed << " step " << step;
            }
            ASSERT_LE(buf.arenaBytes(), 2 * buf.pendingBytes() + largest)
                << "seed " << seed << " step " << step;
            if (step % 64 == 0) {
                buf.read(0, out);
                ASSERT_EQ(out, model.mem)
                    << "seed " << seed << " step " << step;
            }
        }
        buf.settleTo(sim::maxTick);
        model.settleTo(sim::maxTick);
        EXPECT_EQ(buf.arenaBytes(), 0u) << "seed " << seed;
        buf.read(0, out);
        EXPECT_EQ(out, model.mem) << "seed " << seed;
    }
}

/**
 * @file
 * Unit tests for the write-combining buffer, including the durability
 * hazard it creates (bytes lost unless flushed).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "host/wc_buffer.hh"
#include "sim/logging.hh"

using namespace bssd;
using namespace bssd::host;

namespace
{

/** Records everything the WC buffer posts, with timestamps. */
struct CapturingSink
{
    std::map<std::uint64_t, std::uint8_t> memory;
    std::uint64_t posts = 0;
    sim::Tick perPost = 5;

    WcBuffer::Sink
    fn()
    {
        return [this](sim::Tick ready, std::uint64_t off,
                      std::span<const std::uint8_t> data) {
            ++posts;
            for (std::size_t i = 0; i < data.size(); ++i)
                memory[off + i] = data[i];
            return ready + perPost;
        };
    }

    bool
    holds(std::uint64_t off, std::span<const std::uint8_t> expect) const
    {
        for (std::size_t i = 0; i < expect.size(); ++i) {
            auto it = memory.find(off + i);
            if (it == memory.end() || it->second != expect[i])
                return false;
        }
        return true;
    }
};

std::vector<std::uint8_t>
bytes(std::initializer_list<std::uint8_t> l)
{
    return {l};
}

} // namespace

TEST(WcBuffer, SmallWriteStaysBuffered)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({1, 2, 3});
    wc.write(0, 100, d);
    EXPECT_EQ(sink.posts, 0u);
    EXPECT_EQ(wc.dirtyLines(), 1u);
    EXPECT_EQ(wc.dirtyBytes(), 3u);
}

TEST(WcBuffer, FullLinePostsImmediately)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    std::vector<std::uint8_t> d(64, 0xaa);
    wc.write(0, 0, d);
    EXPECT_EQ(sink.posts, 1u);
    EXPECT_TRUE(sink.holds(0, d));
    EXPECT_EQ(wc.dirtyLines(), 0u);
}

TEST(WcBuffer, CombinesAdjacentStores)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    // Two 32-byte stores filling one line combine into one burst.
    std::vector<std::uint8_t> half(32, 0x11);
    wc.write(0, 0, half);
    wc.write(0, 32, half);
    EXPECT_EQ(sink.posts, 1u);
}

TEST(WcBuffer, FlushRangePostsAndClears)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({9, 8, 7});
    wc.write(0, 10, d);
    sim::Tick t = wc.flushRange(100, 10, 3);
    EXPECT_EQ(sink.posts, 1u);
    EXPECT_TRUE(sink.holds(10, d));
    EXPECT_EQ(wc.dirtyLines(), 0u);
    // Cost: clflush + sink + mfence.
    WcConfig cfg;
    EXPECT_EQ(t, 100 + cfg.clflushCost + sink.perPost + cfg.mfenceCost);
}

TEST(WcBuffer, FlushRangeLeavesOtherLines)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({1});
    wc.write(0, 0, d);
    wc.write(0, 6400, d);
    wc.flushRange(0, 0, 64);
    EXPECT_EQ(wc.dirtyLines(), 1u);
    EXPECT_EQ(sink.posts, 1u);
}

TEST(WcBuffer, UnflushedBytesAreLostOnPowerFailure)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({0xde, 0xad});
    wc.write(0, 0, d);
    std::uint64_t lost = wc.dropAll();
    EXPECT_EQ(lost, 2u);
    EXPECT_EQ(sink.posts, 0u);
    EXPECT_FALSE(sink.holds(0, d));
}

TEST(WcBuffer, CapacityEvictionPostsOldestLine)
{
    WcConfig cfg;
    cfg.lines = 2;
    CapturingSink sink;
    WcBuffer wc(cfg, sink.fn());
    auto d = bytes({1});
    wc.write(0, 0, d);    // line A
    wc.write(0, 64, d);   // line B
    wc.write(0, 128, d);  // line C: evicts A
    EXPECT_EQ(sink.posts, 1u);
    EXPECT_TRUE(sink.holds(0, d));
    EXPECT_EQ(wc.capacityEvictions(), 1u);
    EXPECT_EQ(wc.dirtyLines(), 2u);
}

TEST(WcBuffer, PartialLinePostsOnlyValidBytes)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({5, 6});
    wc.write(0, 20, d); // sparse within the line
    wc.flushAll(0);
    EXPECT_TRUE(sink.holds(20, d));
    EXPECT_EQ(sink.memory.size(), 2u); // nothing else posted
}

TEST(WcBuffer, DrainAllHasNoInstructionCost)
{
    CapturingSink sink;
    sink.perPost = 0;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({1});
    wc.write(0, 0, d);
    EXPECT_EQ(wc.drainAll(50), 50u);
    EXPECT_EQ(sink.posts, 1u);
}

TEST(WcBuffer, SpanningWriteTouchesMultipleLines)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    std::vector<std::uint8_t> d(100, 0x42);
    wc.write(0, 60, d); // crosses two line boundaries
    wc.flushAll(0);
    EXPECT_TRUE(sink.holds(60, d));
}

TEST(WcBuffer, RewriteWithinLineKeepsLatest)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto a = bytes({1, 1, 1});
    auto b = bytes({2, 2});
    wc.write(0, 0, a);
    wc.write(0, 1, b);
    wc.flushAll(0);
    auto want = bytes({1, 2, 2});
    EXPECT_TRUE(sink.holds(0, want));
}

TEST(WcBuffer, EvictionPostsEachValidRunInAddressOrder)
{
    std::vector<std::pair<std::uint64_t, std::size_t>> posts;
    WcBuffer wc(WcConfig{}, [&](sim::Tick ready, std::uint64_t off,
                                std::span<const std::uint8_t> data) {
        posts.emplace_back(off, data.size());
        return ready;
    });
    // Runs at both edges of the line and one inside, stored out of
    // address order; the last run ends on the line's final byte.
    wc.write(0, 128 + 60, std::vector<std::uint8_t>(4, 1));
    wc.write(0, 128 + 10, std::vector<std::uint8_t>(11, 2));
    wc.write(0, 128, std::vector<std::uint8_t>(3, 3));
    EXPECT_EQ(wc.dirtyBytes(), 18u);
    wc.flushAll(0);
    const std::vector<std::pair<std::uint64_t, std::size_t>> want = {
        {128, 3}, {138, 11}, {188, 4}};
    EXPECT_EQ(posts, want);
    EXPECT_EQ(wc.dirtyBytes(), 0u);

    // Two halves that complete a line post it as one 64-byte burst.
    posts.clear();
    wc.write(0, 256 + 32, std::vector<std::uint8_t>(32, 4));
    EXPECT_TRUE(posts.empty());
    wc.write(0, 256, std::vector<std::uint8_t>(32, 5));
    const std::vector<std::pair<std::uint64_t, std::size_t>> full = {
        {256, 64}};
    EXPECT_EQ(posts, full);
    EXPECT_EQ(wc.dirtyLines(), 0u);
}

TEST(WcBuffer, EmptyFlushRangeIsABareFence)
{
    // A zero-length range covers no line, wherever it starts: the
    // flush costs the mfence alone and posts nothing.
    const WcConfig cfg;
    for (std::uint64_t off : {0u, 10u, 64u}) {
        CapturingSink sink;
        WcBuffer wc(cfg, sink.fn());
        wc.write(0, 0, bytes({1, 2, 3}));
        wc.write(0, 64, bytes({4}));
        EXPECT_EQ(wc.flushRange(1'000'000, off, 0),
                  1'000'000 + cfg.mfenceCost)
            << "offset " << off;
        EXPECT_EQ(sink.posts, 0u) << "offset " << off;
        EXPECT_EQ(wc.dirtyLines(), 2u) << "offset " << off;
    }
}

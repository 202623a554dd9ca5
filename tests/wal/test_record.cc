/**
 * @file
 * Unit tests for log record framing and stream parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "wal/record.hh"

using namespace bssd::wal;

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

} // namespace

TEST(Crc32c, KnownVector)
{
    // "123456789" -> 0xE3069283 (CRC-32C check value).
    std::vector<std::uint8_t> d{'1', '2', '3', '4', '5', '6', '7', '8',
                                '9'};
    EXPECT_EQ(crc32c(d), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero)
{
    EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32c, Rfc3720Vectors)
{
    // RFC 3720 appendix B.4: 32-byte iSCSI test patterns.
    std::vector<std::uint8_t> up(32), down(32);
    std::iota(up.begin(), up.end(), std::uint8_t(0));
    std::iota(down.rbegin(), down.rend(), std::uint8_t(0));
    EXPECT_EQ(crc32c(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
    EXPECT_EQ(crc32c(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
    EXPECT_EQ(crc32c(up), 0x46DD794Eu);
    EXPECT_EQ(crc32c(down), 0x113FDB5Cu);
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndOffset)
{
    // The table-driven CRC takes words and a byte tail; every length
    // through two full tables' worth of bytes, at every start offset
    // within a word, must match the one-bit-at-a-time definition.
    auto reference = [](std::span<const std::uint8_t> data) {
        std::uint32_t c = ~std::uint32_t(0);
        for (std::uint8_t byte : data) {
            c ^= byte;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? (0x82f63b78 ^ (c >> 1)) : (c >> 1);
        }
        return ~c;
    };
    bssd::sim::Rng rng(9);
    std::vector<std::uint8_t> buf(8 + 257);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    const std::span<const std::uint8_t> all(buf);
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 257; ++len) {
            const auto data = all.subspan(off, len);
            ASSERT_EQ(crc32c(data), reference(data))
                << "offset " << off << " length " << len;
        }
    }
}

TEST(Crc32c, MatchesTablePathAtEveryLengthAndAlignment)
{
    // crc32c() takes the SSE4.2 instruction where the CPU has it: eight
    // bytes a step, then a byte tail. Every length through 1,100 bytes,
    // at every start alignment within a word, must give what the
    // slice-by-8 tables give.
    bssd::sim::Rng rng(17);
    std::vector<std::uint8_t> buf(8 + 1100);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    const std::span<const std::uint8_t> all(buf);
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 1100; ++len) {
            const auto data = all.subspan(off, len);
            ASSERT_EQ(crc32c(data), crc32cPortable(data))
                << "offset " << off << " length " << len;
        }
    }
}

TEST(Record, SealInPlaceMatchesFrameRecord)
{
    // An engine encodes its payload behind a reserved header and seals
    // it there; whatever the header held before is overwritten.
    for (std::size_t n = 0; n <= 300; ++n) {
        const auto p = payload(n, static_cast<std::uint8_t>(n));
        std::vector<std::uint8_t> frame(recordHeaderBytes + n, 0xee);
        std::copy(p.begin(), p.end(), frame.begin() + recordHeaderBytes);
        sealRecord(frame, 1000 + n);
        ASSERT_EQ(frame, frameRecord(1000 + n, p)) << "payload " << n;
    }
    std::vector<std::uint8_t> headerless(recordHeaderBytes - 1);
    EXPECT_THROW(sealRecord(headerless, 0), bssd::sim::SimPanic);
}

TEST(Record, FrameAndParseRoundTrip)
{
    auto p = payload(100, 7);
    auto f = frameRecord(5, p);
    EXPECT_EQ(f.size(), recordHeaderBytes + 100);
    auto recs = parseRecords(f);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].sequence, 5u);
    EXPECT_EQ(recs[0].payload, p);
}

TEST(Record, FrameBytesArePinned)
{
    // FNV-1a over a whole frame, recorded with a byte-at-a-time CRC.
    // Every log already written holds this format, so no rewrite of
    // the framing code may change a byte of it.
    const auto f = frameRecord(5, payload(100, 7));
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : f) {
        h ^= b;
        h *= 1099511628211ull;
    }
    EXPECT_EQ(h, 0xafb9d5ce7c35b11bull);
}

TEST(Record, MultipleRecordsParseInOrder)
{
    std::vector<std::uint8_t> stream;
    for (std::uint64_t s = 0; s < 10; ++s) {
        auto f = frameRecord(s, payload(16 + s, static_cast<std::uint8_t>(s)));
        stream.insert(stream.end(), f.begin(), f.end());
    }
    auto recs = parseRecords(stream, 0);
    ASSERT_EQ(recs.size(), 10u);
    std::uint64_t end = 0;
    for (std::uint64_t s = 0; s < 10; ++s) {
        EXPECT_EQ(recs[s].sequence, s);
        end += recordHeaderBytes + 16 + s;
        EXPECT_EQ(recs[s].end, end);
    }
}

TEST(Record, TornTailStopsParse)
{
    std::vector<std::uint8_t> stream;
    for (std::uint64_t s = 0; s < 3; ++s) {
        auto f = frameRecord(s, payload(32, 1));
        stream.insert(stream.end(), f.begin(), f.end());
    }
    // Corrupt a byte in the third record's payload.
    stream[2 * (recordHeaderBytes + 32) + recordHeaderBytes + 4] ^= 0xff;
    auto recs = parseRecords(stream, 0);
    EXPECT_EQ(recs.size(), 2u);
}

TEST(Record, ErasedAreaStopsParse)
{
    auto f = frameRecord(0, payload(16, 3));
    std::vector<std::uint8_t> stream = f;
    stream.insert(stream.end(), 64, 0xff); // erased NAND
    EXPECT_EQ(parseRecords(stream, 0).size(), 1u);
    stream = f;
    stream.insert(stream.end(), 64, 0x00); // zeroed buffer
    EXPECT_EQ(parseRecords(stream, 0).size(), 1u);
}

TEST(Record, StaleSequenceStopsParse)
{
    // A valid-CRC record with the wrong sequence is from a previous
    // log generation and must not replay.
    std::vector<std::uint8_t> stream;
    auto a = frameRecord(0, payload(8, 1));
    auto b = frameRecord(7, payload(8, 2)); // stale: expected 1
    stream.insert(stream.end(), a.begin(), a.end());
    stream.insert(stream.end(), b.begin(), b.end());
    EXPECT_EQ(parseRecords(stream, 0).size(), 1u);
}

TEST(Record, TruncatedHeaderStops)
{
    auto f = frameRecord(0, payload(8, 1));
    f.resize(f.size() - 1);
    EXPECT_EQ(parseRecords(f, 0).size(), 0u);
}

TEST(Record, ChunkedStreamSkipsPadding)
{
    // Two 256-byte chunks; each holds one record plus padding.
    const std::uint64_t chunk = 256;
    std::vector<std::uint8_t> stream(2 * chunk, 0);
    auto a = frameRecord(0, payload(64, 1));
    auto b = frameRecord(1, payload(64, 2));
    std::copy(a.begin(), a.end(), stream.begin());
    std::copy(b.begin(), b.end(),
              stream.begin() + static_cast<std::ptrdiff_t>(chunk));
    auto recs = parseLogStream(stream, chunk, 0);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[1].sequence, 1u);
    // Ends are offsets in the whole stream, not in the chunk.
    EXPECT_EQ(recs[0].end, a.size());
    EXPECT_EQ(recs[1].end, chunk + b.size());
}

TEST(Record, ChunkedStreamStopsAtDeadChunk)
{
    const std::uint64_t chunk = 256;
    std::vector<std::uint8_t> stream(3 * chunk, 0xff);
    auto a = frameRecord(0, payload(64, 1));
    std::copy(a.begin(), a.end(), stream.begin());
    // Chunk 1 is erased; chunk 2 holds a stale record.
    auto stale = frameRecord(9, payload(64, 3));
    std::copy(stale.begin(), stale.end(),
              stream.begin() + static_cast<std::ptrdiff_t>(2 * chunk));
    auto recs = parseLogStream(stream, chunk, 0);
    EXPECT_EQ(recs.size(), 1u);
}

TEST(Record, ChunkZeroMeansContiguous)
{
    auto f = frameRecord(0, payload(8, 1));
    EXPECT_EQ(parseLogStream(f, 0, 0).size(), 1u);
}

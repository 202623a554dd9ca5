#include "wal/record.hh"

#include <array>
#include <cstring>

namespace bssd::wal
{

namespace
{

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/** Slice-by-8 tables: t[0] is the byte-at-a-time table, and t[k][b]
 *  is the CRC of byte b followed by k zero bytes, so eight lookups,
 *  one per byte of a 64-bit word, advance the CRC by the whole word. */
constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    constexpr std::uint32_t poly = 0x82f63b78; // CRC-32C, reflected
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (poly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

constexpr CrcTables crcTables = makeCrcTables();

void
put32(std::vector<std::uint8_t> &v, std::uint32_t x)
{
    for (int i = 0; i < 4; ++i)
        v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

void
put64(std::vector<std::uint8_t> &v, std::uint64_t x)
{
    for (int i = 0; i < 8; ++i)
        v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

std::uint32_t
get32(std::span<const std::uint8_t> b, std::size_t off)
{
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i)
        x |= std::uint32_t(b[off + i]) << (8 * i);
    return x;
}

/** Little-endian u64 at @p off, spelled out from one pointer so that
 *  GCC folds it into a single load on a little-endian host (a loop,
 *  or indexing the span, stays eight byte loads at -O2); crc32c()
 *  reads every word through this. */
inline std::uint64_t
get64(std::span<const std::uint8_t> b, std::size_t off)
{
    const std::uint8_t *p = b.subspan(off, 8).data();
    return std::uint64_t(p[0]) | std::uint64_t(p[1]) << 8 |
           std::uint64_t(p[2]) << 16 | std::uint64_t(p[3]) << 24 |
           std::uint64_t(p[4]) << 32 | std::uint64_t(p[5]) << 40 |
           std::uint64_t(p[6]) << 48 | std::uint64_t(p[7]) << 56;
}

} // namespace

std::uint32_t
crc32c(std::span<const std::uint8_t> data)
{
    const auto &t = crcTables;
    std::uint32_t c = ~std::uint32_t(0);
    std::size_t i = 0;
    for (; i + 8 <= data.size(); i += 8) {
        const std::uint64_t w = get64(data, i) ^ c;
        c = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^
            t[5][(w >> 16) & 0xff] ^ t[4][(w >> 24) & 0xff] ^
            t[3][(w >> 32) & 0xff] ^ t[2][(w >> 40) & 0xff] ^
            t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
    }
    for (; i < data.size(); ++i)
        c = t[0][(c ^ data[i]) & 0xff] ^ (c >> 8);
    return ~c;
}

std::vector<std::uint8_t>
frameRecord(std::uint64_t seq, std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> frame;
    frameRecord(frame, seq, payload);
    return frame;
}

void
frameRecord(std::vector<std::uint8_t> &frame, std::uint64_t seq,
            std::span<const std::uint8_t> payload)
{
    frame.clear();
    frame.reserve(recordHeaderBytes + payload.size());
    put32(frame, static_cast<std::uint32_t>(payload.size()));
    put32(frame, 0); // the CRC, patched in below
    put64(frame, seq);
    frame.insert(frame.end(), payload.begin(), payload.end());
    // CRC covers sequence + payload.
    const std::uint32_t crc =
        crc32c(std::span<const std::uint8_t>(frame).subspan(8));
    for (int i = 0; i < 4; ++i)
        frame[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

std::vector<ParsedRecord>
parseRecords(std::span<const std::uint8_t> bytes, std::int64_t expect_first)
{
    std::vector<ParsedRecord> out;
    std::size_t pos = 0;
    std::int64_t expect = expect_first;
    while (pos + recordHeaderBytes <= bytes.size()) {
        std::uint32_t len = get32(bytes, pos);
        if (len > bytes.size() - pos - recordHeaderBytes)
            break; // truncated or garbage length
        std::uint32_t crc = get32(bytes, pos + 4);
        auto body = bytes.subspan(pos + 8, 8 + len);
        if (crc32c(body) != crc)
            break; // torn write or erased area
        std::uint64_t seq = get64(bytes, pos + 8);
        if (expect >= 0 && seq != static_cast<std::uint64_t>(expect))
            break; // stale data from a previous log generation
        ParsedRecord rec;
        rec.sequence = seq;
        rec.payload.assign(body.begin() + 8, body.end());
        out.push_back(std::move(rec));
        pos += recordHeaderBytes + len;
        if (expect >= 0)
            ++expect;
    }
    return out;
}

std::vector<ParsedRecord>
parseLogStream(std::span<const std::uint8_t> bytes,
               std::uint64_t chunkBytes, std::int64_t expect_first)
{
    if (chunkBytes == 0)
        return parseRecords(bytes, expect_first);
    std::vector<ParsedRecord> out;
    std::int64_t expect = expect_first;
    for (std::size_t pos = 0; pos < bytes.size(); pos += chunkBytes) {
        std::size_t n = std::min<std::size_t>(chunkBytes,
                                              bytes.size() - pos);
        auto recs = parseRecords(bytes.subspan(pos, n), expect);
        if (recs.empty())
            break;
        if (expect >= 0)
            expect += static_cast<std::int64_t>(recs.size());
        else if (!out.empty() &&
                 recs.front().sequence != out.back().sequence + 1)
            break; // stale chunk from a previous generation
        for (auto &r : recs)
            out.push_back(std::move(r));
    }
    return out;
}

} // namespace bssd::wal

#include "wal/record.hh"

#include <algorithm>
#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "sim/logging.hh"

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

/** @name Little-endian stores, spelled out byte by byte so GCC folds
 *  each into one store on a little-endian host. @{ */
inline void
store32(std::uint8_t *p, std::uint32_t x)
{
    p[0] = static_cast<std::uint8_t>(x);
    p[1] = static_cast<std::uint8_t>(x >> 8);
    p[2] = static_cast<std::uint8_t>(x >> 16);
    p[3] = static_cast<std::uint8_t>(x >> 24);
}

inline void
store64(std::uint8_t *p, std::uint64_t x)
{
    store32(p, static_cast<std::uint32_t>(x));
    store32(p + 4, static_cast<std::uint32_t>(x >> 32));
}
/** @} */

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

#if defined(__x86_64__)
/** crc32c() on the SSE4.2 crc32 instruction: eight bytes per step,
 *  then the tail a byte at a time. Only called once the CPU is known
 *  to have it. */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(std::span<const std::uint8_t> data)
{
    std::uint64_t c = ~std::uint32_t(0);
    std::size_t i = 0;
    for (; i + 8 <= data.size(); i += 8)
        c = _mm_crc32_u64(c, get64(data, i));
    auto c32 = static_cast<std::uint32_t>(c);
    for (; i < data.size(); ++i)
        c32 = _mm_crc32_u8(c32, data[i]);
    return ~c32;
}

bool
cpuHasSse42()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}

/** Set once at start-up. A static initialiser in another file that
 *  frames a record before this one runs reads false, which only picks
 *  the table path: both paths give the same CRC. */
const bool hwCrc = cpuHasSse42();
#endif

} // namespace

std::uint32_t
crc32cPortable(std::span<const std::uint8_t> data)
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

std::uint32_t
crc32c(std::span<const std::uint8_t> data)
{
#if defined(__x86_64__)
    if (hwCrc)
        return crc32cSse42(data);
#endif
    return crc32cPortable(data);
}

void
sealRecord(std::span<std::uint8_t> frame, std::uint64_t seq)
{
    if (frame.size() < recordHeaderBytes)
        sim::panic("sealRecord: frame of ", frame.size(),
                   " bytes has no room for the record header");
    std::uint8_t *p = frame.data();
    store32(p, static_cast<std::uint32_t>(frame.size() - recordHeaderBytes));
    store64(p + 8, seq);
    // The CRC covers sequence + payload.
    store32(p + 4, crc32c(frame.subspan(8)));
}

std::vector<std::uint8_t>
frameRecord(std::uint64_t seq, std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> frame(recordHeaderBytes + payload.size());
    std::copy(payload.begin(), payload.end(),
              frame.begin() + recordHeaderBytes);
    sealRecord(frame, seq);
    return frame;
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
        pos += recordHeaderBytes + len;
        rec.end = pos;
        out.push_back(std::move(rec));
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
        for (auto &r : recs) {
            r.end += pos;
            out.push_back(std::move(r));
        }
    }
    return out;
}

} // namespace bssd::wal

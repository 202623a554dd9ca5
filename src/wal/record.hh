/**
 * @file
 * Log record framing shared by all engines.
 *
 * Frame layout: [u32 length][u32 crc32][u64 sequence][payload].
 * The CRC covers sequence + payload. Parsing stops at the first frame
 * that fails validation, which is how a recovering engine detects the
 * torn or never-persisted tail of its log (erased NAND reads 0xff, a
 * zeroed buffer 0x00 - both are invalid lengths).
 */

#ifndef BSSD_WAL_RECORD_HH
#define BSSD_WAL_RECORD_HH

#include <cstdint>
#include <span>
#include <vector>

namespace bssd::wal
{

/**
 * CRC32 (Castagnoli polynomial), bit-reflected. Runs on the SSE4.2
 * crc32 instruction when the CPU has it, else on crc32cPortable().
 */
std::uint32_t crc32c(std::span<const std::uint8_t> data);

/** crc32c() from slice-by-8 tables: the path on hosts without SSE4.2,
 *  and the reference the hardware path is tested against. */
std::uint32_t crc32cPortable(std::span<const std::uint8_t> data);

/** A parsed, validated log record. */
struct ParsedRecord
{
    std::uint64_t sequence = 0;
    std::vector<std::uint8_t> payload;
};

/** Bytes of framing overhead per record. */
constexpr std::size_t recordHeaderBytes = 4 + 4 + 8;

/**
 * Seal a record encoded in place: @p frame is recordHeaderBytes of
 * reserved header followed by the payload. Writes the length, the
 * sequence @p seq and the CRC into the header, so an engine that
 * encodes its payload straight behind the header never copies it.
 */
void sealRecord(std::span<std::uint8_t> frame, std::uint64_t seq);

/** Frame @p payload with sequence number @p seq (a copy of it behind
 *  a header, sealed by sealRecord()). */
std::vector<std::uint8_t> frameRecord(std::uint64_t seq,
                                      std::span<const std::uint8_t> payload);

/**
 * Parse a durable log byte stream. Returns every valid record up to
 * the first invalid frame (torn write, erased area, stale data with a
 * non-monotonic sequence).
 *
 * @param bytes        the recovered log area
 * @param expect_first when non-negative, the first record must carry
 *                     this sequence and subsequent ones must increase
 *                     by one; otherwise sequences are unconstrained.
 */
std::vector<ParsedRecord> parseRecords(std::span<const std::uint8_t> bytes,
                                       std::int64_t expect_first = -1);

/**
 * Parse a recovered log stream whose records never straddle
 * @p chunkBytes boundaries (each chunk may end in padding). With
 * chunkBytes == 0 this is plain parseRecords(). Parsing continues
 * into the next chunk as long as the sequence stays consecutive and
 * stops at the first chunk that yields nothing.
 */
std::vector<ParsedRecord>
parseLogStream(std::span<const std::uint8_t> bytes,
               std::uint64_t chunkBytes, std::int64_t expect_first = -1);

} // namespace bssd::wal

#endif // BSSD_WAL_RECORD_HH

/**
 * @file
 * The BA-buffer: the byte-addressable DRAM region inside 2B-SSD, plus
 * its mapping table.
 *
 * Two aspects make this more than a byte array:
 *
 *  1. The mapping table (max 8 entries, Table I) ties buffer ranges to
 *     LBA ranges; the BA-buffer manager consults it on every API call
 *     and the LBA checker derives its pinned set from it.
 *
 *  2. Posted-write semantics: bytes arriving over PCIe land with a
 *     delay, and a power failure keeps only what had arrived. The
 *     buffer therefore keeps a pending queue of in-flight posted
 *     writes stamped with their arrival tick; settleTo() applies the
 *     arrived prefix, powerLossAt() applies it and discards the rest.
 *     The queue's bytes live in one arena, so posting a write copies
 *     it once and allocates nothing once the arena has grown.
 */

#ifndef BSSD_BA_BA_BUFFER_HH
#define BSSD_BA_BA_BUFFER_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ba/ba_types.hh"
#include "sim/ticks.hh"

namespace bssd::ba
{

/** The byte-addressable DRAM region and its mapping table. */
class BaBuffer
{
  public:
    explicit BaBuffer(const BaConfig &cfg);

    std::uint64_t size() const { return data_.size(); }

    /** @name Mapping table @{ */

    /**
     * Install entry @p eid mapping buffer range
     * [offset, offset+length) to LBA range [lba, lba+length).
     * @throws BaError on duplicate eid, table-full, range overlap or
     *         misalignment.
     */
    void addEntry(Eid eid, std::uint64_t offset, std::uint64_t lba,
                  std::uint64_t length, std::uint32_t page_size);

    /** Remove entry @p eid. @throws BaError if absent. */
    void removeEntry(Eid eid);

    /** Look up entry @p eid (BA_GET_ENTRY_INFO). */
    std::optional<MapEntry> entry(Eid eid) const;

    /** All valid entries (recovery dump, LBA checker). */
    std::vector<MapEntry> entries() const;

    /** True if [lba, lba+len) intersects any pinned LBA range. */
    bool lbaPinned(std::uint64_t lba, std::uint64_t len) const;

    /** Number of valid entries. */
    std::uint32_t entryCount() const;

    /** @} */

    /** @name Data path @{ */

    /**
     * Record a posted write that will arrive at @p arrival. Contents
     * are NOT visible/durable until settled.
     */
    void postWrite(sim::Tick arrival, std::uint64_t offset,
                   std::span<const std::uint8_t> data);

    /** Apply every pending posted write with arrival <= @p t. */
    void settleTo(sim::Tick t);

    /**
     * Power failure at time @p t: arrived writes are kept (the
     * recovery manager will dump them), in-flight ones are lost.
     * @param dropAfter additionally drop posted writes that arrived
     *        after this tick - queued in the root complex when the
     *        power died, never committed to device DRAM (the
     *        fault-injection posted-drop window). Defaults to "keep
     *        everything that arrived by @p t".
     * @return number of bytes lost.
     */
    std::uint64_t powerLossAt(sim::Tick t,
                              sim::Tick dropAfter = sim::maxTick);

    /** Direct device-side write (the power-cut delivery of torn WC
     *  lines). */
    void deviceWrite(std::uint64_t offset,
                     std::span<const std::uint8_t> data);

    /**
     * Settled contents of [offset, offset+len), range-checked: what
     * the internal datapath moves between the buffer and NAND in
     * place (BA_PIN reads NAND into it, BA_FLUSH programs NAND from
     * it). Like read(), it sees no posted write that has not settled.
     */
    std::span<std::uint8_t> span(std::uint64_t offset, std::uint64_t len);

    /**
     * Read settled contents. @pre the caller settled to the read time
     * first (MMIO reads are ordered behind posted writes).
     */
    void read(std::uint64_t offset, std::span<std::uint8_t> out) const;

    /** Bytes posted but not yet settled (diagnostics/tests). */
    std::uint64_t pendingBytes() const { return pendingBytes_; }

    /** Bytes the posted-write arena holds: 0 once the queue has
     *  drained, at most twice pendingBytes() while it has not
     *  (tests). */
    std::uint64_t arenaBytes() const { return arena_.size(); }

    /** @} */

    /** Wipe contents and table (factory state; used by tests). */
    void clear();

    /** Replace all contents+table (recovery restore path). */
    void restore(std::span<const std::uint8_t> contents,
                 const std::vector<MapEntry> &table);

  private:
    /** A posted write in flight: its bytes are arena_[pos, pos+len). */
    struct Pending
    {
        sim::Tick arrival;
        std::uint64_t offset;
        std::size_t pos;
        std::size_t len;
    };

    BaConfig cfg_;
    std::vector<std::uint8_t> data_;
    std::vector<MapEntry> table_;
    /** The posted-write FIFO: pending_[head_..] are in flight, in
     *  posting order; the records before head_ have settled. */
    std::vector<Pending> pending_;
    std::size_t head_ = 0;
    /** The in-flight writes' bytes, in posting order. Emptied whenever
     *  the queue drains, and compacted when the settled prefix
     *  outgrows the bytes still in flight. */
    std::vector<std::uint8_t> arena_;
    std::uint64_t pendingBytes_ = 0;

    const MapEntry *find(Eid eid) const;
    void checkRange(std::uint64_t offset, std::uint64_t len) const;
    /** Forget every posted write (applied or dropped by the caller). */
    void resetQueue();
};

} // namespace bssd::ba

#endif // BSSD_BA_BA_BUFFER_HH

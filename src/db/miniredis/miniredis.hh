/**
 * @file
 * miniredis: a single-threaded in-memory key-value store with an
 * append-only file, standing in for Redis 3.2.4 (Section IV-B).
 *
 * Every write command is serialised into the AOF and committed
 * immediately (appendfsync=always semantics). Being single-threaded,
 * Redis cannot group commits - each command pays the full durability
 * latency, which is why the paper's Fig. 9 shows Redis gaining the
 * most from 2B-SSD's sub-microsecond BA commit. The paper also skips
 * double buffering for Redis to respect its single-threaded design;
 * that is a BaWal configuration here.
 *
 * An AOF rewrite (BGREWRITEAOF) compacts the log into a snapshot of
 * the live dataset when the region fills. The snapshot is never
 * copied: the store keeps an undo log of the pre-images of the keys
 * changed since the rewrite, and recovery rolls those back to reach
 * the snapshot before it replays the AOF suffix. The pre-images are
 * copied into fixed-size byte blocks, so a changed key keeps its
 * record and a rewrite frees a few blocks.
 *
 * Each key lives in one record, as Redis keeps a short string's
 * header and bytes in one allocation: the key's and value's lengths,
 * then the key's bytes, then the value's. Records are carved from
 * 1 MiB blocks the store owns and recycled through a free list per
 * size class. The dataset is the stores' flat index
 * (db/flat_index.hh) over 16-byte entries (record, value capacity,
 * rewrite stamp) behind open-addressed slots, whose entry order, the
 * only order a scan sees, follows from the command sequence alone.
 *
 * No command allocates per key: a command is encoded in place in one
 * member frame buffer, a SET whose value fits overwrites its record
 * in place, and one that does not moves the key to a record of a
 * larger class, handing the old one back. Construction allocates no
 * block.
 */

#ifndef BSSD_DB_MINIREDIS_MINIREDIS_HH
#define BSSD_DB_MINIREDIS_MINIREDIS_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "db/flat_index.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "wal/log_device.hh"

namespace bssd::db::miniredis
{

/** Cost model of the command-processing loop. */
struct RedisConfig
{
    /** Per-command cost: event loop, protocol parse, dict op, and
     *  the loopback client round trip of redis-benchmark. Calibrated
     *  to the Fig. 9 bands (ULL ~ DC parity for Redis). */
    sim::Tick commandCpu = sim::usOf(30);
    /** Extra CPU per KiB of value handled. */
    sim::Tick cpuPerKib = sim::usOf(4);
};

/** The single-threaded store. */
class MiniRedis
{
  public:
    /** A key with its index hash, computed once by hashed(). A caller
     *  that knows its next keys hashes each ahead of its command, for
     *  the prefetch hints and for the command's own lookup. */
    struct HashedKey
    {
        std::string_view text;
        std::uint64_t hash = 0;
    };

    static HashedKey
    hashed(std::string_view key)
    {
        return {key, std::hash<std::string_view>{}(key)};
    }

    /** Bytes the undo log spends on one pre-image (see undoBytes()). */
    static constexpr std::size_t
    preImageBytes(std::size_t keyBytes, std::size_t valueBytes)
    {
        return PreImageLog::recordBytes(keyBytes, valueBytes);
    }

    /** Size of the undo log's byte blocks. */
    static constexpr std::size_t undoBlockBytes = 16 * 1024;

    MiniRedis(wal::LogDevice &aof, const RedisConfig &cfg = {});

    /** SET key value. @return completion (durable) time. */
    sim::Tick set(sim::Tick now, const std::string &key,
                  std::span<const std::uint8_t> value)
    {
        return set(now, hashed(key), value);
    }

    sim::Tick set(sim::Tick now, const HashedKey &key,
                  std::span<const std::uint8_t> value);

    /** DEL key. */
    sim::Tick del(sim::Tick now, const std::string &key);

    /**
     * INCR key. A missing key counts from 0. When the stored value is
     * not wholly a decimal int64, or the increment would overflow, the
     * command fails as Redis's does: it charges command CPU only,
     * leaves the key and the AOF alone, and sets @p result empty.
     */
    sim::Tick incr(sim::Tick now, const std::string &key,
                   std::optional<std::int64_t> *result = nullptr);

    /** GET key. */
    sim::Tick get(sim::Tick now, const std::string &key,
                  std::optional<std::vector<std::uint8_t>> *out = nullptr)
        const
    {
        return get(now, hashed(key), out);
    }

    sim::Tick get(sim::Tick now, const HashedKey &key,
                  std::optional<std::vector<std::uint8_t>> *out = nullptr)
        const;

    /** @name Prefetch hints for an upcoming command on @p key
     *  (db::FlatIndex's): the slot first, the entry a few commands
     *  later, then its record, which every command's key compare
     *  reads. They change nothing. @{ */
    void prefetchSlot(const HashedKey &key) const
    {
        index_.prefetchSlot(key.hash);
    }
    void prefetchEntry(const HashedKey &key) const
    {
        index_.prefetchEntry(key.hash);
    }
    /** Once the slot and the entry have landed, start loading the
     *  record. It compares no key (FlatIndex::entryHint): a lookup
     *  here would wait for the record it is meant to fetch early. */
    void prefetchRecord(const HashedKey &key) const
    {
        if (const Entry *e = index_.entryHint(key.hash))
            prefetchRecordOf(*e);
    }
    /** @} */

    /** Replay the durable AOF after a crash. */
    void recover();

    /** @name Introspection @{ */
    std::size_t keys() const { return index_.size(); }
    bool exists(const std::string &k) const
    {
        return index_.find(k) != nullptr;
    }
    std::uint64_t aofRewrites() const { return rewrites_.value(); }
    std::uint64_t commandsProcessed() const { return commands_.value(); }
    /** Bytes of pre-images logged since the last AOF rewrite. */
    std::size_t undoBytes() const { return undo_.bytes(); }
    /** Bytes carved from the store's blocks for records: those holding
     *  a key and those waiting on a free list for the next. */
    std::size_t reservedBytes() const { return slab_.carvedBytes(); }

    /**
     * Order-independent digest of the live dataset (FNV-1a over the
     * key/value bytes in sorted key order). Two stores with the same
     * contents hash identically regardless of insertion order — the
     * parallel-engine determinism tests compare final store contents
     * across thread counts with this.
     */
    std::uint64_t contentHash() const;

    /**
     * Visit every live (key, value) pair in sorted key order - the
     * store iterator the cluster's range-move copy path walks (a shard
     * being drained streams its moving keys out through this).
     */
    void forEachSorted(
        const std::function<void(std::string_view,
                                 std::span<const std::uint8_t>)> &fn)
        const;

    /**
     * Visit every live (key, value) pair exactly once, in entry order:
     * a function of the command sequence, but not of the keys' sort
     * order. Only for scans whose result does not depend on the order
     * (the cluster's consistency check); anything that can reach an
     * output walks forEachSorted() instead.
     */
    void forEachUnordered(
        const std::function<void(std::string_view,
                                 std::span<const std::uint8_t>)> &fn)
        const;
    /** @} */

  private:
    /** @name A record: [u32 key bytes][u32 value bytes][key][value].
     *  Its lengths are read and written with memcpy: a record is bytes
     *  in a block, not an object. @{ */
    static constexpr std::size_t recordHeadBytes = 8;

    static std::uint32_t
    keyBytesOf(const std::uint8_t *rec)
    {
        std::uint32_t n = 0;
        std::memcpy(&n, rec, sizeof n);
        return n;
    }

    static std::uint32_t
    valueBytesOf(const std::uint8_t *rec)
    {
        std::uint32_t n = 0;
        std::memcpy(&n, rec + 4, sizeof n);
        return n;
    }

    static void
    setValueBytesOf(std::uint8_t *rec, std::uint32_t n)
    {
        std::memcpy(rec + 4, &n, sizeof n);
    }

    static std::string_view
    keyOf(const std::uint8_t *rec)
    {
        return {reinterpret_cast<const char *>(rec + recordHeadBytes),
                keyBytesOf(rec)};
    }

    static std::span<const std::uint8_t>
    valueOf(const std::uint8_t *rec)
    {
        return {rec + recordHeadBytes + keyBytesOf(rec), valueBytesOf(rec)};
    }
    /** @} */

    /** A live key: its record, stamped with the last rewrite
     *  generation whose undo log already holds the key's pre-image. */
    struct Entry
    {
        std::uint8_t *rec = nullptr;
        /** Value bytes the record has room for. */
        std::uint32_t capacity = 0;
        std::uint32_t logged = 0;

        std::string_view key() const { return keyOf(rec); }
        std::span<const std::uint8_t> value() const { return valueOf(rec); }
        /** The record's size class, in bytes. */
        std::size_t
        recordBytes() const
        {
            return recordHeadBytes + keyBytesOf(rec) + capacity;
        }
    };
    static_assert(sizeof(Entry) == 16);

    struct EntryKey
    {
        std::string_view
        operator()(const Entry &e) const
        {
            return e.key();
        }
    };

    /** Start loading @p e's record: its first line, and the byte
     *  recordHeadBytes + capacity in. That byte is the key's length
     *  short of the record's end, so for keys of up to 8 bytes (the
     *  cluster's are) it lies on the record's last line: a record's
     *  size and address are multiples of 8. */
    static void
    prefetchRecordOf(const Entry &e)
    {
        __builtin_prefetch(e.rec);
        __builtin_prefetch(e.rec + recordHeadBytes + e.capacity);
    }

    /**
     * The records' memory. Records are carved front to back out of
     * blockBytes blocks; one larger than a block gets a block of its
     * own. A record handed back goes on its size class's free list,
     * threaded through the first bytes of the free records, and the
     * next record of that class reuses it. Classes step by 8 bytes up
     * to 1 KiB, then four per doubling (at most 25 % to spare).
     */
    class RecordSlab
    {
      public:
        static constexpr std::size_t blockBytes = std::size_t(1) << 20;

        /** Bytes of the smallest class that holds @p bytes. */
        static std::size_t classBytes(std::size_t bytes);

        /** A record of classBytes(@p bytes) bytes, 8-byte aligned. */
        std::uint8_t *take(std::size_t bytes);

        /** Hand back @p rec, of @p classBytes bytes, for reuse. */
        void give(std::uint8_t *rec, std::size_t classBytes);

        std::size_t carvedBytes() const { return carved_; }

      private:
        /** (class index, class bytes) of the smallest class that
         *  holds @p bytes. */
        static std::pair<std::size_t, std::size_t>
        sizeClass(std::size_t bytes);

        std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
        /** The unused rest of the last blockBytes block. */
        std::uint8_t *next_ = nullptr;
        std::uint8_t *end_ = nullptr;
        /** Per class index, the newest free record, or null. */
        std::vector<std::uint8_t *> free_;
        std::size_t carved_ = 0;
    };

    /**
     * The keys as the current rewrite generation found them, in change
     * order: each a record of its bytes, or of its absence. Records
     * are copied end to end into undoBlockBytes blocks, running on
     * across a block's end, and blocks are never reallocated, so
     * logging allocates only when a block fills. A record is
     * [u32 key bytes][u32 value bytes + 1, 0 = absent][key][value]
     * [u32 record bytes]; the trailing length walks the log newest
     * first.
     */
    class PreImageLog
    {
      public:
        static constexpr std::size_t
        recordBytes(std::size_t keyBytes, std::size_t valueBytes)
        {
            return 3 * 4 + keyBytes + valueBytes;
        }

        /** Log @p key's pre-image: @p value, or absent when empty. */
        void add(std::string_view key,
                 std::optional<std::span<const std::uint8_t>> value);

        /** Visit every record newest first: fn(key, value or null). */
        void forEachNewestFirst(
            const std::function<void(const std::string &,
                                     const std::vector<std::uint8_t> *)>
                &fn) const;

        /** Drop every record; keeps the first block for the next. */
        void clear();

        std::size_t bytes() const { return bytes_; }

      private:
        void write(const void *src, std::size_t n);
        void read(std::size_t pos, void *dst, std::size_t n) const;

        std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
        std::size_t bytes_ = 0;
    };

    wal::LogDevice &aof_;
    RedisConfig cfg_;
    /** The records the entries point at. */
    RecordSlab slab_;
    // Audited (DESIGN.md section 11): the slot layout depends on the
    // key hash, but nothing iterates the slots. Scans walk the entries,
    // whose order is set by the command sequence (appends, and the
    // last entry moving into a deleted one's place); contentHash() and
    // forEachSorted() sort them first, and forEachUnordered() feeds
    // only order-insensitive checks.
    /** The live dataset. */
    db::FlatIndex<Entry, std::hash<std::string_view>, EntryKey> index_;
    std::uint64_t seq_ = 0;
    /** Pre-images of the keys changed since the last AOF rewrite:
     *  undone newest first, they restore the dataset the rewrite
     *  captured. */
    PreImageLog undo_;
    /** Current rewrite generation (entries start unstamped at 0);
     *  nextGeneration() panics rather than wrap it. */
    std::uint32_t generation_ = 1;
    /** First sequence number after the last AOF rewrite. */
    std::uint64_t snapshotSeq_ = 0;

    /** The command being logged, reused from command to command: the
     *  record header, then the payload encoded straight behind it. */
    std::vector<std::uint8_t> frame_;

    sim::Counter rewrites_{"miniredis.aofRewrites"};
    sim::Counter commands_{"miniredis.commands"};

    sim::Tick cpu(sim::Tick now, std::size_t bytes) const;
    /** Encode one command into frame_, behind its record header. */
    void encode(std::uint8_t cmd, std::string_view key,
                std::span<const std::uint8_t> value);
    /** Seal frame_ as the next record, append and commit it. */
    sim::Tick logCommand(sim::Tick now);
    sim::Tick maybeRewriteAof(sim::Tick now);
    /** Start a new rewrite generation: every key logs its pre-image
     *  again on its next change. */
    void nextGeneration();
    /** Replay one AOF command (recovery only). */
    void apply(std::span<const std::uint8_t> payload);
    /** @name Dataset changes, each undo-logged @{ */
    void put(const HashedKey &key, std::span<const std::uint8_t> value);
    void erase(const HashedKey &key);
    /** @} */
    /** @name Dataset changes that log nothing (put(), erase() and the
     *  undo rollback build on them) @{ */
    /** The entry of @p key, with a fresh record that holds
     *  @p valueBytes when absent; second is whether it was. */
    std::pair<Entry *, bool> emplace(const HashedKey &key,
                                     std::size_t valueBytes);
    /** Make @p value @p e's value, moving @p e to a larger record when
     *  its own has no room. */
    void assign(Entry &e, std::span<const std::uint8_t> value);
    /** Drop the key at index slot @p slot and hand back its record. */
    void removeAt(std::size_t slot);
    /** @} */
    /** A record of @p key with room for @p valueBytes, as an
     *  unstamped entry with an empty value. */
    Entry newRecord(std::string_view key, std::size_t valueBytes);

    /** A record, with its key's first 8 bytes as a sort key. */
    struct Ref
    {
        std::uint64_t prefix;
        const std::uint8_t *rec;
    };
    /** The records in sorted key order. */
    std::vector<Ref> sortedRefs() const;
    /** Call fn(record) for every record in sorted key order, each
     *  prefetched a few records ahead. */
    template <class Fn>
    void visitSorted(Fn &&fn) const;
};

} // namespace bssd::db::miniredis

#endif // BSSD_DB_MINIREDIS_MINIREDIS_HH

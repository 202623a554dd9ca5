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
 * copied into fixed-size byte blocks, so a changed key keeps its value
 * buffer and a rewrite frees a few blocks.
 *
 * The dataset lives in the stores' flat index (db/flat_index.hh): a
 * dense vector of entries (key, value, rewrite stamp) behind
 * open-addressed slots, whose entry order, the only order a scan
 * sees, follows from the command sequence alone.
 *
 * A command on an existing key allocates nothing once the buffers have
 * grown: it is encoded in place in one member frame buffer, and a SET
 * overwrites its entry's value buffer in place.
 */

#ifndef BSSD_DB_MINIREDIS_MINIREDIS_HH
#define BSSD_DB_MINIREDIS_MINIREDIS_HH

#include <cstdint>
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
     *  later. They change nothing. @{ */
    void prefetchSlot(const HashedKey &key) const
    {
        index_.prefetchSlot(key.hash);
    }
    void prefetchEntry(const HashedKey &key) const
    {
        index_.prefetchEntry(key.hash);
    }
    /** For a SET, whose pre-image and new bytes go through the value
     *  buffer: once the entry has landed, start loading its value. */
    void prefetchValue(const HashedKey &key) const
    {
        if (const Entry *e = index_.find(key.text, key.hash))
            __builtin_prefetch(e->value.data());
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
        const std::function<void(const std::string &,
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
        const std::function<void(const std::string &,
                                 std::span<const std::uint8_t>)> &fn)
        const;
    /** @} */

  private:
    /** A live key and value, stamped with the last rewrite generation
     *  whose undo log already holds the key's pre-image. */
    struct Entry
    {
        std::string key;
        std::vector<std::uint8_t> value;
        std::uint64_t logged = 0;
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

        /** Log @p key's pre-image: @p value, or absent when null. */
        void add(std::string_view key,
                 const std::vector<std::uint8_t> *value);

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
    // Audited (DESIGN.md section 11): the slot layout depends on the
    // key hash, but nothing iterates the slots. Scans walk the entries,
    // whose order is set by the command sequence (appends, and the
    // last entry moving into a deleted one's place); contentHash() and
    // forEachSorted() sort them first, and forEachUnordered() feeds
    // only order-insensitive checks.
    /** The live dataset. */
    db::FlatIndex<Entry, std::hash<std::string_view>> index_;
    std::uint64_t seq_ = 0;
    /** Pre-images of the keys changed since the last AOF rewrite:
     *  undone newest first, they restore the dataset the rewrite
     *  captured. */
    PreImageLog undo_;
    /** Current rewrite generation (entries start unstamped at 0). */
    std::uint64_t generation_ = 1;
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
    /** Replay one AOF command (recovery only). */
    void apply(std::span<const std::uint8_t> payload);
    /** @name Dataset changes, each undo-logged @{ */
    void put(const HashedKey &key, std::span<const std::uint8_t> value);
    void erase(const HashedKey &key);
    /** @} */
    /** References to the entries in sorted key order. */
    struct Ref
    {
        std::uint64_t prefix;
        const Entry *e;
    };
    std::vector<Ref> sortedRefs() const;
};

} // namespace bssd::db::miniredis

#endif // BSSD_DB_MINIREDIS_MINIREDIS_HH

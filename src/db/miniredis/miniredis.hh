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
 * the snapshot before it replays the AOF suffix.
 *
 * The dataset lives in the stores' flat index (db/flat_index.hh): a
 * dense vector of entries (key, value, rewrite stamp) behind
 * open-addressed slots, whose entry order, the only order a scan
 * sees, follows from the command sequence alone.
 */

#ifndef BSSD_DB_MINIREDIS_MINIREDIS_HH
#define BSSD_DB_MINIREDIS_MINIREDIS_HH

#include <cstdint>
#include <functional>
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
    MiniRedis(wal::LogDevice &aof, const RedisConfig &cfg = {});

    /** SET key value. @return completion (durable) time. */
    sim::Tick set(sim::Tick now, const std::string &key,
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
        const;

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

    /** A key as the current rewrite generation found it: its bytes,
     *  or nullopt when it was absent. */
    struct PreImage
    {
        std::string key;
        std::optional<std::vector<std::uint8_t>> value;
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
    /** Pre-images of the keys changed since the last AOF rewrite, in
     *  change order: undone in reverse, they restore the dataset the
     *  rewrite captured. */
    std::vector<PreImage> undo_;
    /** Current rewrite generation (entries start unstamped at 0). */
    std::uint64_t generation_ = 1;
    /** First sequence number after the last AOF rewrite. */
    std::uint64_t snapshotSeq_ = 0;

    sim::Counter rewrites_{"miniredis.aofRewrites"};
    sim::Counter commands_{"miniredis.commands"};

    sim::Tick cpu(sim::Tick now, std::size_t bytes) const;
    sim::Tick logCommand(sim::Tick now,
                         std::span<const std::uint8_t> payload);
    sim::Tick maybeRewriteAof(sim::Tick now);
    /** Replay one AOF command (recovery only). */
    void apply(std::span<const std::uint8_t> payload);
    /** @name Dataset changes, each undo-logged @{ */
    void put(const std::string &key, std::span<const std::uint8_t> value);
    void erase(const std::string &key);
    /** @} */
};

} // namespace bssd::db::miniredis

#endif // BSSD_DB_MINIREDIS_MINIREDIS_HH

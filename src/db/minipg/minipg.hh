/**
 * @file
 * minipg: a transactional social-graph store with XLOG-style
 * write-ahead logging, standing in for PostgreSQL 9.6 in the paper's
 * Linkbench experiment (Section IV-B).
 *
 * What matters for the reproduction is the commit path structure:
 * every mutating operation serialises an XLOG record, appends it to
 * the log device, and commits through the WALWriter group-commit
 * gate. Reads are served from memory (the paper provisions DRAM so
 * all user data is cached; only WAL traffic hits the log device).
 *
 * Crash recovery is real: after a crash the engine replays the
 * durable log prefix (ARIES-style redo) and must reach exactly the
 * state covered by successful commits - tests verify both presence of
 * committed data and absence of uncommitted data.
 *
 * Operations update the store directly; XLOG records are decoded only
 * by recovery. A checkpoint copies nothing: the store keeps an undo
 * log of the pre-images of the nodes and links changed since it, and
 * recovery rolls those back to reach the checkpoint image before it
 * redoes the log suffix (the scheme MiniRedis uses for AOF rewrites).
 * Nodes live in the stores' flat index (db/flat_index.hh), links in
 * an ordered map that range scans walk.
 */

#ifndef BSSD_DB_MINIPG_MINIPG_HH
#define BSSD_DB_MINIPG_MINIPG_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "db/flat_index.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "wal/group_commit.hh"
#include "wal/log_device.hh"

namespace bssd::db::minipg
{

/** CPU cost model of the SQL execution layer. */
struct PgConfig
{
    /** Parse/plan/execute cost of one operation. Calibrated so the
     *  Fig. 9 Linkbench ratios land in the paper's bands (a real
     *  PostgreSQL op on this class of hardware runs tens of us). */
    sim::Tick opCpu = sim::usOf(28);
    /** Extra CPU per KiB of payload handled. */
    sim::Tick cpuPerKib = sim::usOf(2);
    /** Checkpoint cost (buffer-pool writeback burst). */
    sim::Tick checkpointCost = sim::msOf(2);
};

/** A graph link key: (source node, link type, destination node). */
struct LinkKey
{
    std::uint64_t id1 = 0;
    std::uint32_t type = 0;
    std::uint64_t id2 = 0;

    auto operator<=>(const LinkKey &) const = default;
};

/** The engine. */
class MiniPg
{
  public:
    MiniPg(wal::LogDevice &log, const PgConfig &cfg = {});

    /** @name Node operations (each is one transaction) @{ */
    sim::Tick addNode(sim::Tick now, std::uint64_t id,
                      std::span<const std::uint8_t> payload);
    sim::Tick updateNode(sim::Tick now, std::uint64_t id,
                         std::span<const std::uint8_t> payload);
    sim::Tick deleteNode(sim::Tick now, std::uint64_t id);
    /** @return completion time; @p out receives the payload if found. */
    sim::Tick getNode(sim::Tick now, std::uint64_t id,
                      std::vector<std::uint8_t> *out = nullptr) const;
    /** @} */

    /** @name Link operations @{ */
    sim::Tick addLink(sim::Tick now, const LinkKey &key,
                      std::span<const std::uint8_t> payload);
    sim::Tick deleteLink(sim::Tick now, const LinkKey &key);
    sim::Tick getLink(sim::Tick now, const LinkKey &key,
                      std::vector<std::uint8_t> *out = nullptr) const;
    /** All links out of (id1, type); returns completion time. */
    sim::Tick getLinkList(sim::Tick now, std::uint64_t id1,
                          std::uint32_t type,
                          std::size_t *count = nullptr) const;
    sim::Tick countLinks(sim::Tick now, std::uint64_t id1,
                         std::uint32_t type,
                         std::size_t *count = nullptr) const;
    /** @} */

    /**
     * A multi-operation transaction. Operations buffer in the handle
     * (paying CPU only) and become atomically durable at commit():
     * the engine serialises them into ONE XLOG record, so a crash
     * either replays all of them or none - tested by the crash
     * matrix. Destroying an uncommitted transaction aborts it.
     */
    class Transaction
    {
      public:
        sim::Tick addNode(sim::Tick now, std::uint64_t id,
                          std::span<const std::uint8_t> payload);
        sim::Tick updateNode(sim::Tick now, std::uint64_t id,
                             std::span<const std::uint8_t> payload);
        sim::Tick deleteNode(sim::Tick now, std::uint64_t id);
        sim::Tick addLink(sim::Tick now, const LinkKey &key,
                          std::span<const std::uint8_t> payload);
        sim::Tick deleteLink(sim::Tick now, const LinkKey &key);

        /** Make every buffered op visible and durable, atomically. */
        sim::Tick commit(sim::Tick now);
        /** Discard the buffered ops. */
        void abort() { ops_.clear(); done_ = true; }

        std::size_t size() const { return ops_.size(); }

      private:
        friend class MiniPg;
        explicit Transaction(MiniPg &pg) : pg_(pg) {}

        /** One buffered operation; node operations key by key.id1. */
        struct Op
        {
            std::uint8_t code = 0;
            LinkKey key;
            std::vector<std::uint8_t> payload;
        };

        sim::Tick buffer(sim::Tick now, std::uint8_t code,
                         const LinkKey &key,
                         std::span<const std::uint8_t> payload);

        MiniPg &pg_;
        std::vector<Op> ops_;
        bool done_ = false;
    };

    /** Open a multi-operation transaction. */
    Transaction begin() { return Transaction(*this); }

    /** Replay the durable log after a crash (call dev.crash() first). */
    void recover();

    /** @name Introspection for tests @{ */
    bool hasNode(std::uint64_t id) const
    {
        return nodes_.find(id) != nullptr;
    }
    bool hasLink(const LinkKey &k) const { return links_.contains(k); }
    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t linkCount() const { return links_.size(); }
    std::uint64_t committedTxns() const { return commits_.value(); }
    std::uint64_t checkpoints() const { return checkpoints_.value(); }
    std::uint64_t nextSequence() const { return seq_; }

    /**
     * Visit every live node in ascending id order - the deterministic
     * store iterator the cluster's range-move copy path walks.
     */
    void forEachNodeSorted(
        const std::function<void(std::uint64_t,
                                 std::span<const std::uint8_t>)> &fn)
        const;

    /**
     * Visit every live node exactly once, in the index's entry order:
     * a function of the operation sequence, but not of the ids' sort
     * order. Only for scans whose result does not depend on the order
     * (the cluster's consistency check); anything that can reach an
     * output walks forEachNodeSorted() instead.
     */
    void forEachNodeUnordered(
        const std::function<void(std::uint64_t,
                                 std::span<const std::uint8_t>)> &fn)
        const;

    /**
     * Order-independent digest of the live dataset (FNV-1a over nodes
     * in id order, then links in key order) - the same contract as
     * MiniRedis::contentHash(), used by the cluster determinism tests
     * to compare minipg shard states across engine thread counts.
     */
    std::uint64_t contentHash() const;
    /** @} */

  private:
    /** A live node, stamped with the last checkpoint generation whose
     *  undo log already holds its pre-image. */
    struct Node
    {
        std::uint64_t key = 0;
        std::vector<std::uint8_t> value;
        std::uint64_t logged = 0;
    };

    /** A live link, stamped like a Node. */
    struct Link
    {
        std::vector<std::uint8_t> value;
        std::uint64_t logged = 0;
    };

    /** A node or link as the current checkpoint generation found it:
     *  its bytes, or nullopt when it was absent. */
    template <class Key>
    struct PreImage
    {
        Key key;
        std::optional<std::vector<std::uint8_t>> value;
    };

    wal::LogDevice &log_;
    PgConfig cfg_;
    wal::GroupCommitter gc_;

    // Audited (DESIGN.md section 11): nothing iterates the index's
    // slots. Scans walk its entries, whose order is set by the
    // operation sequence; forEachNodeSorted() and contentHash() sort
    // them first, and forEachNodeUnordered() feeds only
    // order-insensitive checks. links_, which range scans, is ordered.
    db::FlatIndex<Node, db::MixHash64> nodes_;
    std::map<LinkKey, Link> links_;
    std::uint64_t seq_ = 0;

    /** Pre-images of the nodes and links changed since the last
     *  checkpoint, in change order: undone in reverse, they restore
     *  the image the checkpoint left (which lives on the data device
     *  in the model). Nodes and links never alias, so each log rolls
     *  back on its own. */
    std::vector<PreImage<std::uint64_t>> nodeUndo_;
    std::vector<PreImage<LinkKey>> linkUndo_;
    /** Current checkpoint generation (entries start unstamped at 0). */
    std::uint64_t generation_ = 1;
    /** False until the first checkpoint: the image before it is the
     *  empty store, so changes log no pre-images and recovery starts
     *  from empty. */
    bool checkpointed_ = false;
    /** First sequence number after the last checkpoint. */
    std::uint64_t snapshotSeq_ = 0;

    /** The record being logged, reused from commit to commit: the
     *  record header, then the XLOG payload encoded straight behind
     *  it. */
    std::vector<std::uint8_t> xlog_;

    sim::Counter commits_{"minipg.commits"};
    sim::Counter checkpoints_{"minipg.checkpoints"};

    sim::Tick cpu(sim::Tick now, std::size_t payload_bytes) const;
    /** One single-operation transaction: apply it, then log it. */
    sim::Tick commitOp(sim::Tick now, std::uint8_t code, const LinkKey &key,
                       std::span<const std::uint8_t> payload);
    /** Size xlog_ for an XLOG payload of @p payload_bytes; @return
     *  where the payload goes, behind the reserved record header. */
    std::uint8_t *startRecord(std::size_t payload_bytes);
    /** Seal xlog_ as the next record, append it and group-commit. */
    sim::Tick logAndCommit(sim::Tick now);
    sim::Tick maybeCheckpoint(sim::Tick now);
    /** Redo one XLOG record (recovery only). */
    void apply(std::span<const std::uint8_t> xlog_payload);
    /** @name Store changes, each undo-logged @{ */
    /** One decoded operation; node operations key by key.id1. Panics
     *  on an unknown opcode. */
    void applyOp(std::uint8_t code, const LinkKey &key,
                 std::span<const std::uint8_t> payload);
    void putNode(std::uint64_t id, std::span<const std::uint8_t> payload);
    void eraseNode(std::uint64_t id);
    void putLink(const LinkKey &key, std::span<const std::uint8_t> payload);
    void eraseLink(const LinkKey &key);
    /** @} */
};

} // namespace bssd::db::minipg

#endif // BSSD_DB_MINIPG_MINIPG_HH

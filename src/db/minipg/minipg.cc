#include "db/minipg/minipg.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "wal/record.hh"

namespace bssd::db::minipg
{

namespace
{

enum class XlogOp : std::uint8_t
{
    addNode = 1,
    updateNode = 2,
    deleteNode = 3,
    addLink = 4,
    deleteLink = 5,
    /** A multi-op transaction: [count][len|sub-payload]... */
    multiOp = 6,
};

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
get32(std::span<const std::uint8_t> b, std::size_t &pos)
{
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i)
        x |= std::uint32_t(b[pos + i]) << (8 * i);
    pos += 4;
    return x;
}

std::uint64_t
get64(std::span<const std::uint8_t> b, std::size_t &pos)
{
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i)
        x |= std::uint64_t(b[pos + i]) << (8 * i);
    pos += 8;
    return x;
}

std::vector<std::uint8_t>
encodeNode(XlogOp op, std::uint64_t id,
           std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> v;
    v.reserve(1 + 8 + 4 + payload.size());
    v.push_back(static_cast<std::uint8_t>(op));
    put64(v, id);
    put32(v, static_cast<std::uint32_t>(payload.size()));
    v.insert(v.end(), payload.begin(), payload.end());
    return v;
}

std::vector<std::uint8_t>
encodeLink(XlogOp op, const LinkKey &key,
           std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> v;
    v.reserve(1 + 8 + 4 + 8 + 4 + payload.size());
    v.push_back(static_cast<std::uint8_t>(op));
    put64(v, key.id1);
    put32(v, key.type);
    put64(v, key.id2);
    put32(v, static_cast<std::uint32_t>(payload.size()));
    v.insert(v.end(), payload.begin(), payload.end());
    return v;
}

} // namespace

MiniPg::MiniPg(wal::LogDevice &log, const PgConfig &cfg)
    : log_(log), cfg_(cfg), gc_(log)
{
}

sim::Tick
MiniPg::cpu(sim::Tick now, std::size_t payload_bytes) const
{
    return now + cfg_.opCpu +
           static_cast<sim::Tick>(
               static_cast<double>(payload_bytes) / 1024.0 *
               static_cast<double>(cfg_.cpuPerKib));
}

sim::Tick
MiniPg::maybeCheckpoint(sim::Tick now)
{
    if (!log_.needsCheckpoint())
        return now;
    checkpoints_.add();
    // Buffer-pool writeback burst, then the log restarts. The durable
    // state snapshot lives on the data device; the model keeps it
    // implicitly (nodes_/links_ are the post-checkpoint image and the
    // snapshot sequence marks where redo must resume).
    now += cfg_.checkpointCost;
    snapshotNodes_ = nodes_;
    snapshotLinks_ = links_;
    snapshotSeq_ = seq_;
    log_.truncate(now);
    gc_.reset();
    return now;
}

sim::Tick
MiniPg::logAndCommit(sim::Tick now,
                     std::span<const std::uint8_t> xlog_payload)
{
    auto frame = wal::frameRecord(seq_, xlog_payload);
    ++seq_;
    now = log_.append(now, frame);
    now = gc_.commit(now);
    commits_.add();
    return maybeCheckpoint(now);
}

sim::Tick
MiniPg::addNode(sim::Tick now, std::uint64_t id,
                std::span<const std::uint8_t> payload)
{
    now = cpu(now, payload.size());
    auto xlog = encodeNode(XlogOp::addNode, id, payload);
    apply(xlog);
    return logAndCommit(now, xlog);
}

sim::Tick
MiniPg::updateNode(sim::Tick now, std::uint64_t id,
                   std::span<const std::uint8_t> payload)
{
    now = cpu(now, payload.size());
    auto xlog = encodeNode(XlogOp::updateNode, id, payload);
    apply(xlog);
    return logAndCommit(now, xlog);
}

sim::Tick
MiniPg::deleteNode(sim::Tick now, std::uint64_t id)
{
    now = cpu(now, 0);
    auto xlog = encodeNode(XlogOp::deleteNode, id, {});
    apply(xlog);
    return logAndCommit(now, xlog);
}

sim::Tick
MiniPg::getNode(sim::Tick now, std::uint64_t id,
                std::vector<std::uint8_t> *out) const
{
    auto it = nodes_.find(id);
    std::size_t bytes = it == nodes_.end() ? 0 : it->second.size();
    if (out && it != nodes_.end())
        *out = it->second;
    return cpu(now, bytes);
}

sim::Tick
MiniPg::addLink(sim::Tick now, const LinkKey &key,
                std::span<const std::uint8_t> payload)
{
    now = cpu(now, payload.size());
    auto xlog = encodeLink(XlogOp::addLink, key, payload);
    apply(xlog);
    return logAndCommit(now, xlog);
}

sim::Tick
MiniPg::deleteLink(sim::Tick now, const LinkKey &key)
{
    now = cpu(now, 0);
    auto xlog = encodeLink(XlogOp::deleteLink, key, {});
    apply(xlog);
    return logAndCommit(now, xlog);
}

sim::Tick
MiniPg::getLink(sim::Tick now, const LinkKey &key,
                std::vector<std::uint8_t> *out) const
{
    auto it = links_.find(key);
    std::size_t bytes = it == links_.end() ? 0 : it->second.size();
    if (out && it != links_.end())
        *out = it->second;
    return cpu(now, bytes);
}

sim::Tick
MiniPg::getLinkList(sim::Tick now, std::uint64_t id1, std::uint32_t type,
                    std::size_t *count) const
{
    LinkKey lo{id1, type, 0};
    LinkKey hi{id1, type, ~std::uint64_t(0)};
    std::size_t n = 0;
    std::size_t bytes = 0;
    for (auto it = links_.lower_bound(lo);
         it != links_.end() && !(hi < it->first); ++it) {
        ++n;
        bytes += it->second.size();
    }
    if (count)
        *count = n;
    return cpu(now, bytes);
}

sim::Tick
MiniPg::countLinks(sim::Tick now, std::uint64_t id1, std::uint32_t type,
                   std::size_t *count) const
{
    std::size_t n = 0;
    sim::Tick t = getLinkList(now, id1, type, &n);
    if (count)
        *count = n;
    return t;
}

void
MiniPg::apply(std::span<const std::uint8_t> xlog_payload)
{
    std::size_t pos = 0;
    auto op = static_cast<XlogOp>(xlog_payload[pos++]);
    switch (op) {
      case XlogOp::addNode:
      case XlogOp::updateNode: {
        std::uint64_t id = get64(xlog_payload, pos);
        std::uint32_t len = get32(xlog_payload, pos);
        nodes_[id].assign(xlog_payload.begin() +
                              static_cast<std::ptrdiff_t>(pos),
                          xlog_payload.begin() +
                              static_cast<std::ptrdiff_t>(pos + len));
        break;
      }
      case XlogOp::deleteNode: {
        std::uint64_t id = get64(xlog_payload, pos);
        get32(xlog_payload, pos);
        nodes_.erase(id);
        break;
      }
      case XlogOp::addLink: {
        LinkKey key;
        key.id1 = get64(xlog_payload, pos);
        key.type = get32(xlog_payload, pos);
        key.id2 = get64(xlog_payload, pos);
        std::uint32_t len = get32(xlog_payload, pos);
        links_[key].assign(xlog_payload.begin() +
                               static_cast<std::ptrdiff_t>(pos),
                           xlog_payload.begin() +
                               static_cast<std::ptrdiff_t>(pos + len));
        break;
      }
      case XlogOp::deleteLink: {
        LinkKey key;
        key.id1 = get64(xlog_payload, pos);
        key.type = get32(xlog_payload, pos);
        key.id2 = get64(xlog_payload, pos);
        get32(xlog_payload, pos);
        links_.erase(key);
        break;
      }
      case XlogOp::multiOp: {
        std::uint32_t count = get32(xlog_payload, pos);
        for (std::uint32_t i = 0; i < count; ++i) {
            std::uint32_t len = get32(xlog_payload, pos);
            apply(xlog_payload.subspan(pos, len));
            pos += len;
        }
        break;
      }
      default:
        sim::panic("minipg: unknown XLOG opcode ",
                   static_cast<int>(op));
    }
}

sim::Tick
MiniPg::Transaction::buffer(sim::Tick now,
                            std::vector<std::uint8_t> encoded,
                            std::size_t payload_bytes)
{
    if (done_)
        sim::fatal("operation on a finished minipg transaction");
    ops_.push_back(std::move(encoded));
    return pg_.cpu(now, payload_bytes);
}

sim::Tick
MiniPg::Transaction::addNode(sim::Tick now, std::uint64_t id,
                             std::span<const std::uint8_t> payload)
{
    return buffer(now, encodeNode(XlogOp::addNode, id, payload),
                  payload.size());
}

sim::Tick
MiniPg::Transaction::updateNode(sim::Tick now, std::uint64_t id,
                                std::span<const std::uint8_t> payload)
{
    return buffer(now, encodeNode(XlogOp::updateNode, id, payload),
                  payload.size());
}

sim::Tick
MiniPg::Transaction::deleteNode(sim::Tick now, std::uint64_t id)
{
    return buffer(now, encodeNode(XlogOp::deleteNode, id, {}), 0);
}

sim::Tick
MiniPg::Transaction::addLink(sim::Tick now, const LinkKey &key,
                             std::span<const std::uint8_t> payload)
{
    return buffer(now, encodeLink(XlogOp::addLink, key, payload),
                  payload.size());
}

sim::Tick
MiniPg::Transaction::deleteLink(sim::Tick now, const LinkKey &key)
{
    return buffer(now, encodeLink(XlogOp::deleteLink, key, {}), 0);
}

sim::Tick
MiniPg::Transaction::commit(sim::Tick now)
{
    if (done_)
        sim::fatal("commit of a finished minipg transaction");
    done_ = true;
    if (ops_.empty())
        return now;
    // One combined XLOG record: all-or-nothing on replay.
    std::vector<std::uint8_t> xlog;
    xlog.push_back(static_cast<std::uint8_t>(XlogOp::multiOp));
    put32(xlog, static_cast<std::uint32_t>(ops_.size()));
    for (const auto &op : ops_) {
        put32(xlog, static_cast<std::uint32_t>(op.size()));
        xlog.insert(xlog.end(), op.begin(), op.end());
    }
    pg_.apply(xlog);
    return pg_.logAndCommit(now, xlog);
}

void
MiniPg::recover()
{
    // ARIES-lite redo: restore the checkpoint image, then replay the
    // durable log suffix in sequence order.
    nodes_ = snapshotNodes_;
    links_ = snapshotLinks_;
    seq_ = snapshotSeq_;
    gc_.reset();
    auto recs = wal::parseLogStream(log_.recoverContents(),
                                    log_.recoveryChunkBytes(),
                                    static_cast<std::int64_t>(seq_));
    for (const auto &r : recs) {
        apply(r.payload);
        seq_ = r.sequence + 1;
    }
}

void
MiniPg::forEachNodeSorted(
    const std::function<void(std::uint64_t,
                             std::span<const std::uint8_t>)> &fn) const
{
    using Ref = std::pair<std::uint64_t, const std::vector<std::uint8_t> *>;
    std::vector<Ref> sorted;
    sorted.reserve(nodes_.size());
    // bssd-lint: allow(det-unordered-iter) collected into a vector that is sorted before visiting
    for (const auto &[id, payload] : nodes_)
        sorted.emplace_back(id, &payload);
    std::sort(sorted.begin(), sorted.end(),
              [](const Ref &a, const Ref &b) { return a.first < b.first; });
    for (const auto &[id, payload] : sorted)
        fn(id, *payload);
}

void
MiniPg::forEachNodeUnordered(
    const std::function<void(std::uint64_t,
                             std::span<const std::uint8_t>)> &fn) const
{
    // bssd-lint: allow(det-unordered-iter) callers are order-insensitive (see the header)
    for (const auto &[id, payload] : nodes_)
        fn(id, payload);
}

std::uint64_t
MiniPg::contentHash() const
{
    std::uint64_t h = 14695981039346656037ull; // FNV-1a offset basis
    auto mix = [&h](const std::uint8_t *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull; // FNV-1a prime
        }
    };
    auto mix64 = [&mix](std::uint64_t v) {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (i * 8));
        mix(b, sizeof(b));
    };
    forEachNodeSorted(
        [&](std::uint64_t id, std::span<const std::uint8_t> payload) {
            mix64(id);
            mix(payload.data(), payload.size());
        });
    for (const auto &[key, payload] : links_) {
        mix64(key.id1);
        mix64(key.type);
        mix64(key.id2);
        mix(payload.data(), payload.size());
    }
    return h;
}

} // namespace bssd::db::minipg

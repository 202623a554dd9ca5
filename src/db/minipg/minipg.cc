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

/** @name Little-endian stores at @p p; each returns the byte after
 *  what it wrote. @{ */
std::uint8_t *
put32(std::uint8_t *p, std::uint32_t x)
{
    p[0] = static_cast<std::uint8_t>(x);
    p[1] = static_cast<std::uint8_t>(x >> 8);
    p[2] = static_cast<std::uint8_t>(x >> 16);
    p[3] = static_cast<std::uint8_t>(x >> 24);
    return p + 4;
}

std::uint8_t *
put64(std::uint8_t *p, std::uint64_t x)
{
    put32(p, static_cast<std::uint32_t>(x));
    return put32(p + 4, static_cast<std::uint32_t>(x >> 32));
}
/** @} */

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

bool
isNodeOp(XlogOp op)
{
    return op == XlogOp::addNode || op == XlogOp::updateNode ||
           op == XlogOp::deleteNode;
}

/** Body bytes encodeOp() writes. */
std::size_t
encodedSize(XlogOp op, std::size_t payload_bytes)
{
    return (isNodeOp(op) ? 1 + 8 + 4 : 1 + 8 + 4 + 8 + 4) + payload_bytes;
}

/** Write the record body of one operation at @p p: the opcode, the
 *  node id (key.id1) or the whole link key, then the payload.
 *  @return the byte after it, encodedSize() bytes on. */
std::uint8_t *
encodeOp(std::uint8_t *p, XlogOp op, const LinkKey &key,
         std::span<const std::uint8_t> payload)
{
    *p++ = static_cast<std::uint8_t>(op);
    p = put64(p, key.id1);
    if (!isNodeOp(op)) {
        p = put32(p, key.type);
        p = put64(p, key.id2);
    }
    p = put32(p, static_cast<std::uint32_t>(payload.size()));
    return std::copy(payload.begin(), payload.end(), p);
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
    // image is the store as of now (it lives on the data device in
    // the model): the undo logs start over, and a new generation makes
    // every node and link log its pre-image again on its next change.
    now += cfg_.checkpointCost;
    nodeUndo_.clear();
    linkUndo_.clear();
    ++generation_;
    checkpointed_ = true;
    snapshotSeq_ = seq_;
    log_.truncate(now);
    gc_.reset();
    return now;
}

std::uint8_t *
MiniPg::startRecord(std::size_t payload_bytes)
{
    xlog_.resize(wal::recordHeaderBytes + payload_bytes);
    return xlog_.data() + wal::recordHeaderBytes;
}

sim::Tick
MiniPg::logAndCommit(sim::Tick now)
{
    wal::sealRecord(xlog_, seq_);
    ++seq_;
    now = log_.append(now, xlog_);
    now = gc_.commit(now);
    commits_.add();
    return maybeCheckpoint(now);
}

void
MiniPg::putNode(std::uint64_t id, std::span<const std::uint8_t> payload)
{
    auto [n, inserted] = nodes_.emplace(id);
    if (checkpointed_ && inserted)
        nodeUndo_.push_back({id, std::nullopt});
    else if (checkpointed_ && n->logged != generation_)
        nodeUndo_.push_back({id, std::move(n->value)});
    n->logged = generation_;
    n->value.assign(payload.begin(), payload.end());
}

void
MiniPg::eraseNode(std::uint64_t id)
{
    const std::size_t slot = nodes_.slotOf(id);
    if (slot == nodes_.noSlot)
        return;
    Node &n = nodes_.at(slot);
    if (checkpointed_ && n.logged != generation_)
        nodeUndo_.push_back({id, std::move(n.value)});
    nodes_.removeAt(slot);
}

void
MiniPg::putLink(const LinkKey &key, std::span<const std::uint8_t> payload)
{
    auto [it, inserted] = links_.try_emplace(key);
    Link &l = it->second;
    if (checkpointed_ && inserted)
        linkUndo_.push_back({key, std::nullopt});
    else if (checkpointed_ && l.logged != generation_)
        linkUndo_.push_back({key, std::move(l.value)});
    l.logged = generation_;
    l.value.assign(payload.begin(), payload.end());
}

void
MiniPg::eraseLink(const LinkKey &key)
{
    auto it = links_.find(key);
    if (it == links_.end())
        return;
    if (checkpointed_ && it->second.logged != generation_)
        linkUndo_.push_back({key, std::move(it->second.value)});
    links_.erase(it);
}

void
MiniPg::applyOp(std::uint8_t code, const LinkKey &key,
                std::span<const std::uint8_t> payload)
{
    switch (static_cast<XlogOp>(code)) {
      case XlogOp::addNode:
      case XlogOp::updateNode:
        putNode(key.id1, payload);
        break;
      case XlogOp::deleteNode:
        eraseNode(key.id1);
        break;
      case XlogOp::addLink:
        putLink(key, payload);
        break;
      case XlogOp::deleteLink:
        eraseLink(key);
        break;
      default:
        sim::panic("minipg: unknown XLOG opcode ", static_cast<int>(code));
    }
}

sim::Tick
MiniPg::commitOp(sim::Tick now, std::uint8_t code, const LinkKey &key,
                 std::span<const std::uint8_t> payload)
{
    applyOp(code, key, payload);
    const auto op = static_cast<XlogOp>(code);
    encodeOp(startRecord(encodedSize(op, payload.size())), op, key,
             payload);
    return logAndCommit(now);
}

sim::Tick
MiniPg::addNode(sim::Tick now, std::uint64_t id,
                std::span<const std::uint8_t> payload)
{
    return commitOp(cpu(now, payload.size()),
                    static_cast<std::uint8_t>(XlogOp::addNode), {id, 0, 0},
                    payload);
}

sim::Tick
MiniPg::updateNode(sim::Tick now, std::uint64_t id,
                   std::span<const std::uint8_t> payload)
{
    return commitOp(cpu(now, payload.size()),
                    static_cast<std::uint8_t>(XlogOp::updateNode),
                    {id, 0, 0}, payload);
}

sim::Tick
MiniPg::deleteNode(sim::Tick now, std::uint64_t id)
{
    return commitOp(cpu(now, 0),
                    static_cast<std::uint8_t>(XlogOp::deleteNode),
                    {id, 0, 0}, {});
}

sim::Tick
MiniPg::getNode(sim::Tick now, std::uint64_t id,
                std::vector<std::uint8_t> *out) const
{
    const Node *n = nodes_.find(id);
    if (out && n)
        *out = n->value;
    return cpu(now, n ? n->value.size() : 0);
}

sim::Tick
MiniPg::addLink(sim::Tick now, const LinkKey &key,
                std::span<const std::uint8_t> payload)
{
    return commitOp(cpu(now, payload.size()),
                    static_cast<std::uint8_t>(XlogOp::addLink), key,
                    payload);
}

sim::Tick
MiniPg::deleteLink(sim::Tick now, const LinkKey &key)
{
    return commitOp(cpu(now, 0),
                    static_cast<std::uint8_t>(XlogOp::deleteLink), key, {});
}

sim::Tick
MiniPg::getLink(sim::Tick now, const LinkKey &key,
                std::vector<std::uint8_t> *out) const
{
    auto it = links_.find(key);
    std::size_t bytes = it == links_.end() ? 0 : it->second.value.size();
    if (out && it != links_.end())
        *out = it->second.value;
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
        bytes += it->second.value.size();
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
    const std::uint8_t code = xlog_payload[pos++];
    const auto op = static_cast<XlogOp>(code);
    if (op == XlogOp::multiOp) {
        const std::uint32_t count = get32(xlog_payload, pos);
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t len = get32(xlog_payload, pos);
            apply(xlog_payload.subspan(pos, len));
            pos += len;
        }
        return;
    }
    if (!isNodeOp(op) && op != XlogOp::addLink && op != XlogOp::deleteLink)
        sim::panic("minipg: unknown XLOG opcode ", static_cast<int>(code));
    LinkKey key;
    key.id1 = get64(xlog_payload, pos);
    if (!isNodeOp(op)) {
        key.type = get32(xlog_payload, pos);
        key.id2 = get64(xlog_payload, pos);
    }
    const std::uint32_t len = get32(xlog_payload, pos);
    applyOp(code, key, xlog_payload.subspan(pos, len));
}

sim::Tick
MiniPg::Transaction::buffer(sim::Tick now, std::uint8_t code,
                            const LinkKey &key,
                            std::span<const std::uint8_t> payload)
{
    if (done_)
        sim::fatal("operation on a finished minipg transaction");
    ops_.push_back({code, key, {payload.begin(), payload.end()}});
    return pg_.cpu(now, payload.size());
}

sim::Tick
MiniPg::Transaction::addNode(sim::Tick now, std::uint64_t id,
                             std::span<const std::uint8_t> payload)
{
    return buffer(now, static_cast<std::uint8_t>(XlogOp::addNode),
                  {id, 0, 0}, payload);
}

sim::Tick
MiniPg::Transaction::updateNode(sim::Tick now, std::uint64_t id,
                                std::span<const std::uint8_t> payload)
{
    return buffer(now, static_cast<std::uint8_t>(XlogOp::updateNode),
                  {id, 0, 0}, payload);
}

sim::Tick
MiniPg::Transaction::deleteNode(sim::Tick now, std::uint64_t id)
{
    return buffer(now, static_cast<std::uint8_t>(XlogOp::deleteNode),
                  {id, 0, 0}, {});
}

sim::Tick
MiniPg::Transaction::addLink(sim::Tick now, const LinkKey &key,
                             std::span<const std::uint8_t> payload)
{
    return buffer(now, static_cast<std::uint8_t>(XlogOp::addLink), key,
                  payload);
}

sim::Tick
MiniPg::Transaction::deleteLink(sim::Tick now, const LinkKey &key)
{
    return buffer(now, static_cast<std::uint8_t>(XlogOp::deleteLink), key,
                  {});
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
    std::size_t bytes = 1 + 4;
    for (const Op &op : ops_)
        bytes += 4 + encodedSize(static_cast<XlogOp>(op.code),
                                 op.payload.size());
    std::uint8_t *p = pg_.startRecord(bytes);
    *p++ = static_cast<std::uint8_t>(XlogOp::multiOp);
    p = put32(p, static_cast<std::uint32_t>(ops_.size()));
    for (const Op &op : ops_) {
        const auto code = static_cast<XlogOp>(op.code);
        p = put32(p, static_cast<std::uint32_t>(
                         encodedSize(code, op.payload.size())));
        p = encodeOp(p, code, op.key, op.payload);
        pg_.applyOp(op.code, op.key, op.payload);
    }
    return pg_.logAndCommit(now);
}

void
MiniPg::recover()
{
    // Roll back to the last checkpoint's image: undo every change
    // since it, newest first, so an item changed twice ends at its
    // oldest pre-image. The redo below logs its own changes afresh
    // under a new generation, so a second recovery rolls those back
    // too. Before the first checkpoint the image is the empty store.
    if (!checkpointed_) {
        nodes_ = {};
        links_.clear();
    }
    for (auto it = nodeUndo_.rbegin(); it != nodeUndo_.rend(); ++it) {
        if (it->value) {
            nodes_.emplace(it->key).first->value = std::move(*it->value);
        } else if (const std::size_t slot = nodes_.slotOf(it->key);
                   slot != nodes_.noSlot) {
            nodes_.removeAt(slot);
        }
    }
    for (auto it = linkUndo_.rbegin(); it != linkUndo_.rend(); ++it) {
        if (it->value)
            links_[it->key].value = std::move(*it->value);
        else
            links_.erase(it->key);
    }
    nodeUndo_.clear();
    linkUndo_.clear();
    ++generation_;
    // ARIES-lite redo of the durable log suffix, in sequence order.
    seq_ = snapshotSeq_;
    gc_.reset();
    const std::vector<std::uint8_t> xlog = log_.recoverContents();
    auto recs = wal::parseLogStream(xlog, log_.recoveryChunkBytes(),
                                    static_cast<std::int64_t>(seq_));
    for (const auto &r : recs) {
        apply(r.payload);
        seq_ = r.sequence + 1;
    }
    log_.resume(std::span(xlog).first(recs.empty() ? 0 : recs.back().end));
}

void
MiniPg::forEachNodeSorted(
    const std::function<void(std::uint64_t,
                             std::span<const std::uint8_t>)> &fn) const
{
    std::vector<const Node *> sorted;
    sorted.reserve(nodes_.size());
    for (const Node &n : nodes_.entries())
        sorted.push_back(&n);
    std::sort(sorted.begin(), sorted.end(),
              [](const Node *a, const Node *b) { return a->key < b->key; });
    for (const Node *n : sorted)
        fn(n->key, n->value);
}

void
MiniPg::forEachNodeUnordered(
    const std::function<void(std::uint64_t,
                             std::span<const std::uint8_t>)> &fn) const
{
    for (const Node &n : nodes_.entries())
        fn(n.key, n.value);
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
    for (const auto &[key, link] : links_) {
        mix64(key.id1);
        mix64(key.type);
        mix64(key.id2);
        mix(link.value.data(), link.value.size());
    }
    return h;
}

} // namespace bssd::db::minipg

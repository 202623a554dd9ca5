#include "db/miniredis/miniredis.hh"

#include <algorithm>
#include <charconv>
#include <limits>

#include "sim/logging.hh"
#include "wal/record.hh"

namespace bssd::db::miniredis
{

namespace
{

constexpr std::uint8_t cmdSet = 1;
constexpr std::uint8_t cmdDel = 2;

std::uint8_t *
put32(std::uint8_t *p, std::uint32_t x)
{
    for (int i = 0; i < 4; ++i)
        *p++ = static_cast<std::uint8_t>(x >> (8 * i));
    return p;
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

} // namespace

void
MiniRedis::PreImageLog::write(const void *src, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        const std::size_t off = bytes_ % undoBlockBytes;
        if (bytes_ / undoBlockBytes == blocks_.size()) {
            blocks_.push_back(
                std::make_unique_for_overwrite<std::uint8_t[]>(
                    undoBlockBytes));
        }
        const std::size_t take = std::min(n, undoBlockBytes - off);
        std::copy_n(p, take, blocks_[bytes_ / undoBlockBytes].get() + off);
        p += take;
        n -= take;
        bytes_ += take;
    }
}

void
MiniRedis::PreImageLog::read(std::size_t pos, void *dst,
                             std::size_t n) const
{
    auto *p = static_cast<std::uint8_t *>(dst);
    while (n > 0) {
        const std::size_t off = pos % undoBlockBytes;
        const std::size_t take = std::min(n, undoBlockBytes - off);
        std::copy_n(blocks_[pos / undoBlockBytes].get() + off, take, p);
        p += take;
        n -= take;
        pos += take;
    }
}

void
MiniRedis::PreImageLog::add(std::string_view key,
                            const std::vector<std::uint8_t> *value)
{
    const std::size_t valueBytes = value ? value->size() : 0;
    const std::uint32_t head[2] = {
        static_cast<std::uint32_t>(key.size()),
        value ? static_cast<std::uint32_t>(valueBytes + 1) : 0};
    const auto total =
        static_cast<std::uint32_t>(recordBytes(key.size(), valueBytes));
    write(head, sizeof head);
    write(key.data(), key.size());
    if (value)
        write(value->data(), valueBytes);
    write(&total, sizeof total);
}

void
MiniRedis::PreImageLog::forEachNewestFirst(
    const std::function<void(const std::string &,
                             const std::vector<std::uint8_t> *)> &fn)
    const
{
    std::string key;
    std::vector<std::uint8_t> value;
    for (std::size_t end = bytes_; end > 0;) {
        std::uint32_t total = 0;
        read(end - sizeof total, &total, sizeof total);
        const std::size_t start = end - total;
        std::uint32_t head[2];
        read(start, head, sizeof head);
        key.resize(head[0]);
        read(start + sizeof head, key.data(), key.size());
        if (head[1] != 0) {
            value.resize(head[1] - 1);
            read(start + sizeof head + key.size(), value.data(),
                 value.size());
        }
        fn(key, head[1] != 0 ? &value : nullptr);
        end = start;
    }
}

void
MiniRedis::PreImageLog::clear()
{
    blocks_.resize(std::min<std::size_t>(blocks_.size(), 1));
    bytes_ = 0;
}

MiniRedis::MiniRedis(wal::LogDevice &aof, const RedisConfig &cfg)
    : aof_(aof), cfg_(cfg)
{
}

void
MiniRedis::encode(std::uint8_t cmd, std::string_view key,
                  std::span<const std::uint8_t> value)
{
    frame_.resize(wal::recordHeaderBytes + 1 + 4 + key.size() + 4 +
                  value.size());
    std::uint8_t *p = frame_.data() + wal::recordHeaderBytes;
    *p++ = cmd;
    p = put32(p, static_cast<std::uint32_t>(key.size()));
    p = std::copy(key.begin(), key.end(), p);
    p = put32(p, static_cast<std::uint32_t>(value.size()));
    std::copy(value.begin(), value.end(), p);
}

sim::Tick
MiniRedis::cpu(sim::Tick now, std::size_t bytes) const
{
    return now + cfg_.commandCpu +
           static_cast<sim::Tick>(static_cast<double>(bytes) / 1024.0 *
                                  static_cast<double>(cfg_.cpuPerKib));
}

sim::Tick
MiniRedis::logCommand(sim::Tick now)
{
    wal::sealRecord(frame_, seq_);
    ++seq_;
    now = aof_.append(now, frame_);
    // appendfsync=always; single-threaded, so no group commit.
    now = aof_.commit(now);
    return maybeRewriteAof(now);
}

sim::Tick
MiniRedis::maybeRewriteAof(sim::Tick now)
{
    if (!aof_.needsCheckpoint())
        return now;
    rewrites_.add();
    // BGREWRITEAOF: the dataset as of now becomes the image recovery
    // restarts from, and the AOF restarts. The image is the live store
    // itself: the undo log starts over, and a new generation makes
    // every key log its pre-image again on its next change. The
    // child-process serialisation runs off the command loop; we charge
    // a fork+bookkeeping cost to the loop itself.
    undo_.clear();
    ++generation_;
    snapshotSeq_ = seq_;
    aof_.truncate(now);
    return now + sim::usOf(500);
}

void
MiniRedis::put(const HashedKey &key, std::span<const std::uint8_t> value)
{
    auto [e, inserted] = index_.emplace(key.text, key.hash);
    if (inserted)
        undo_.add(key.text, nullptr);
    else if (e->logged != generation_)
        undo_.add(key.text, &e->value);
    e->logged = generation_;
    e->value.assign(value.begin(), value.end());
}

void
MiniRedis::erase(const HashedKey &key)
{
    const std::size_t slot = index_.slotOf(key.text, key.hash);
    if (slot == index_.noSlot)
        return;
    Entry &e = index_.at(slot);
    if (e.logged != generation_)
        undo_.add(key.text, &e.value);
    index_.removeAt(slot);
}

sim::Tick
MiniRedis::set(sim::Tick now, const HashedKey &key,
               std::span<const std::uint8_t> value)
{
    commands_.add();
    now = cpu(now, key.text.size() + value.size());
    put(key, value);
    encode(cmdSet, key.text, value);
    return logCommand(now);
}

sim::Tick
MiniRedis::del(sim::Tick now, const std::string &key)
{
    commands_.add();
    now = cpu(now, key.size());
    erase(hashed(key));
    encode(cmdDel, key, {});
    return logCommand(now);
}

sim::Tick
MiniRedis::incr(sim::Tick now, const std::string &key,
                std::optional<std::int64_t> *result)
{
    commands_.add();
    const HashedKey k = hashed(key);
    std::int64_t v = 0;
    if (const Entry *e = index_.find(k.text, k.hash)) {
        const char *first = reinterpret_cast<const char *>(e->value.data());
        const char *last = first + e->value.size();
        const auto [end, ec] = std::from_chars(first, last, v);
        if (ec != std::errc() || end != last ||
            v == std::numeric_limits<std::int64_t>::max()) {
            // "value is not an integer or out of range": the command
            // is parsed and answered, nothing is written or logged.
            if (result)
                result->reset();
            return cpu(now, key.size() + e->value.size());
        }
    }
    ++v;
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    std::span<const std::uint8_t> text(
        reinterpret_cast<const std::uint8_t *>(buf),
        static_cast<std::size_t>(res.ptr - buf));
    if (result)
        *result = v;
    now = cpu(now, key.size() + text.size());
    put(k, text);
    encode(cmdSet, key, text);
    return logCommand(now);
}

sim::Tick
MiniRedis::get(sim::Tick now, const HashedKey &key,
               std::optional<std::vector<std::uint8_t>> *out) const
{
    std::size_t bytes = key.text.size();
    const Entry *e = index_.find(key.text, key.hash);
    if (e)
        bytes += e->value.size();
    if (out) {
        *out = e ? std::optional<std::vector<std::uint8_t>>(e->value)
                 : std::nullopt;
    }
    return cpu(now, bytes);
}

void
MiniRedis::apply(std::span<const std::uint8_t> payload)
{
    std::size_t pos = 0;
    std::uint8_t cmd = payload[pos++];
    std::uint32_t klen = get32(payload, pos);
    const HashedKey key = hashed(std::string_view(
        reinterpret_cast<const char *>(payload.data() + pos), klen));
    pos += klen;
    std::uint32_t vlen = get32(payload, pos);
    switch (cmd) {
      case cmdSet:
        put(key, payload.subspan(pos, vlen));
        break;
      case cmdDel:
        erase(key);
        break;
      default:
        sim::panic("miniredis: unknown AOF command ",
                   static_cast<int>(cmd));
    }
}

void
MiniRedis::recover()
{
    // Roll back to the last rewrite's image: undo every change since
    // it, newest first, so a key changed twice ends at its oldest
    // pre-image. The replay below logs its own changes afresh under a
    // new generation, so a second recovery rolls those back too.
    undo_.forEachNewestFirst(
        [this](const std::string &key,
               const std::vector<std::uint8_t> *value) {
            if (value) {
                index_.emplace(key).first->value = *value;
            } else if (const std::size_t slot = index_.slotOf(key);
                       slot != index_.noSlot) {
                index_.removeAt(slot);
            }
        });
    undo_.clear();
    ++generation_;
    seq_ = snapshotSeq_;
    const std::vector<std::uint8_t> aof = aof_.recoverContents();
    auto recs = wal::parseLogStream(aof, aof_.recoveryChunkBytes(),
                                    static_cast<std::int64_t>(seq_));
    for (const auto &r : recs) {
        apply(r.payload);
        seq_ = r.sequence + 1;
    }
    aof_.resume(std::span(aof).first(recs.empty() ? 0 : recs.back().end));
}

std::uint64_t
MiniRedis::contentHash() const
{
    std::uint64_t h = 14695981039346656037ull; // FNV-1a offset basis
    auto mix = [&h](const std::uint8_t *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull; // FNV-1a prime
        }
    };
    // The sorted walk visits entries in no memory order: start each
    // entry's miss kEntryAhead references early and its value's
    // kValueAhead early, by when the entry holding the value's address
    // has landed.
    constexpr std::size_t kEntryAhead = 16;
    constexpr std::size_t kValueAhead = 8;
    const std::vector<Ref> sorted = sortedRefs();
    const std::size_t n = sorted.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kEntryAhead < n)
            prefetchObject(sorted[i + kEntryAhead].e);
        if (i + kValueAhead < n)
            __builtin_prefetch(sorted[i + kValueAhead].e->value.data());
        const Entry &e = *sorted[i].e;
        mix(reinterpret_cast<const std::uint8_t *>(e.key.data()),
            e.key.size());
        mix(e.value.data(), e.value.size());
    }
    return h;
}

void
MiniRedis::forEachSorted(
    const std::function<void(const std::string &,
                             std::span<const std::uint8_t>)> &fn) const
{
    for (const Ref &r : sortedRefs())
        fn(r.e->key, r.e->value);
}

std::vector<MiniRedis::Ref>
MiniRedis::sortedRefs() const
{
    // Sort references to the entries, not the entries: the key's first
    // eight bytes, big-endian and zero-padded, order two keys exactly
    // as a byte-wise compare does unless they tie, and only ties fall
    // back to comparing the full keys (std::string_view order, the
    // same as a std::map keyed by the text).
    std::vector<Ref> sorted;
    sorted.reserve(index_.size());
    for (const Entry &e : index_.entries()) {
        std::uint64_t prefix = 0;
        for (std::size_t i = 0; i < 8; ++i) {
            prefix <<= 8;
            if (i < e.key.size())
                prefix |= static_cast<std::uint8_t>(e.key[i]);
        }
        sorted.push_back({prefix, &e});
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Ref &a, const Ref &b) {
                  return a.prefix != b.prefix ? a.prefix < b.prefix
                                              : a.e->key < b.e->key;
              });
    return sorted;
}

void
MiniRedis::forEachUnordered(
    const std::function<void(const std::string &,
                             std::span<const std::uint8_t>)> &fn) const
{
    // The entries stream in order; their values sit wherever the heap
    // put them, so start each value's miss a few entries early.
    constexpr std::size_t kValueAhead = 8;
    const std::vector<Entry> &entries = index_.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i + kValueAhead < entries.size())
            __builtin_prefetch(entries[i + kValueAhead].value.data());
        fn(entries[i].key, entries[i].value);
    }
}

} // namespace bssd::db::miniredis

#include "db/miniredis/miniredis.hh"

#include <algorithm>
#include <charconv>

#include "sim/logging.hh"
#include "wal/record.hh"

namespace bssd::db::miniredis
{

namespace
{

constexpr std::uint8_t cmdSet = 1;
constexpr std::uint8_t cmdDel = 2;

void
put32(std::vector<std::uint8_t> &v, std::uint32_t x)
{
    for (int i = 0; i < 4; ++i)
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

std::vector<std::uint8_t>
encodeCmd(std::uint8_t cmd, const std::string &key,
          std::span<const std::uint8_t> value)
{
    std::vector<std::uint8_t> v;
    v.push_back(cmd);
    put32(v, static_cast<std::uint32_t>(key.size()));
    v.insert(v.end(), key.begin(), key.end());
    put32(v, static_cast<std::uint32_t>(value.size()));
    v.insert(v.end(), value.begin(), value.end());
    return v;
}

} // namespace

MiniRedis::MiniRedis(wal::LogDevice &aof, const RedisConfig &cfg)
    : aof_(aof), cfg_(cfg)
{
}

sim::Tick
MiniRedis::cpu(sim::Tick now, std::size_t bytes) const
{
    return now + cfg_.commandCpu +
           static_cast<sim::Tick>(static_cast<double>(bytes) / 1024.0 *
                                  static_cast<double>(cfg_.cpuPerKib));
}

sim::Tick
MiniRedis::logCommand(sim::Tick now,
                      std::span<const std::uint8_t> payload)
{
    auto frame = wal::frameRecord(seq_, payload);
    ++seq_;
    now = aof_.append(now, frame);
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
MiniRedis::put(const std::string &key, std::span<const std::uint8_t> value)
{
    auto [it, inserted] = store_.try_emplace(key);
    Entry &e = it->second;
    if (inserted)
        undo_.push_back({key, std::nullopt});
    else if (e.logged != generation_)
        undo_.push_back({key, std::move(e.value)});
    e.logged = generation_;
    e.value.assign(value.begin(), value.end());
}

void
MiniRedis::erase(const std::string &key)
{
    auto it = store_.find(key);
    if (it == store_.end())
        return;
    if (it->second.logged != generation_)
        undo_.push_back({key, std::move(it->second.value)});
    store_.erase(it);
}

sim::Tick
MiniRedis::set(sim::Tick now, const std::string &key,
               std::span<const std::uint8_t> value)
{
    commands_.add();
    now = cpu(now, key.size() + value.size());
    put(key, value);
    return logCommand(now, encodeCmd(cmdSet, key, value));
}

sim::Tick
MiniRedis::del(sim::Tick now, const std::string &key)
{
    commands_.add();
    now = cpu(now, key.size());
    erase(key);
    return logCommand(now, encodeCmd(cmdDel, key, {}));
}

sim::Tick
MiniRedis::incr(sim::Tick now, const std::string &key,
                std::int64_t *result)
{
    commands_.add();
    std::int64_t v = 0;
    if (auto it = store_.find(key); it != store_.end()) {
        const auto &raw = it->second.value;
        std::from_chars(reinterpret_cast<const char *>(raw.data()),
                        reinterpret_cast<const char *>(raw.data()) +
                            raw.size(),
                        v);
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
    put(key, text);
    return logCommand(now, encodeCmd(cmdSet, key, text));
}

sim::Tick
MiniRedis::get(sim::Tick now, const std::string &key,
               std::optional<std::vector<std::uint8_t>> *out) const
{
    std::size_t bytes = key.size();
    auto it = store_.find(key);
    if (it != store_.end())
        bytes += it->second.value.size();
    if (out) {
        *out = it == store_.end()
            ? std::optional<std::vector<std::uint8_t>>()
            : std::optional<std::vector<std::uint8_t>>(it->second.value);
    }
    return cpu(now, bytes);
}

void
MiniRedis::apply(std::span<const std::uint8_t> payload)
{
    std::size_t pos = 0;
    std::uint8_t cmd = payload[pos++];
    std::uint32_t klen = get32(payload, pos);
    std::string key(payload.begin() + static_cast<std::ptrdiff_t>(pos),
                    payload.begin() +
                        static_cast<std::ptrdiff_t>(pos + klen));
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
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        if (it->value)
            store_[it->key].value = std::move(*it->value);
        else
            store_.erase(it->key);
    }
    undo_.clear();
    ++generation_;
    seq_ = snapshotSeq_;
    auto recs = wal::parseLogStream(aof_.recoverContents(),
                                    aof_.recoveryChunkBytes(),
                                    static_cast<std::int64_t>(seq_));
    for (const auto &r : recs) {
        apply(r.payload);
        seq_ = r.sequence + 1;
    }
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
    forEachSorted([&](const std::string &key,
                      std::span<const std::uint8_t> value) {
        mix(reinterpret_cast<const std::uint8_t *>(key.data()),
            key.size());
        mix(value.data(), value.size());
    });
    return h;
}

void
MiniRedis::forEachSorted(
    const std::function<void(const std::string &,
                             std::span<const std::uint8_t>)> &fn) const
{
    // Sort references to the entries, not the entries: the key's first
    // eight bytes, big-endian and zero-padded, order two keys exactly
    // as a byte-wise compare does unless they tie, and only ties fall
    // back to comparing the full keys (std::string_view order, the
    // same as a std::map keyed by the text).
    struct Ref
    {
        std::uint64_t prefix;
        const std::pair<const std::string, Entry> *kv;
    };
    std::vector<Ref> sorted;
    sorted.reserve(store_.size());
    // bssd-lint: allow(det-unordered-iter) collected into a vector that is sorted before visiting
    for (const auto &kv : store_) {
        std::uint64_t prefix = 0;
        for (std::size_t i = 0; i < 8; ++i) {
            prefix <<= 8;
            if (i < kv.first.size())
                prefix |= static_cast<std::uint8_t>(kv.first[i]);
        }
        sorted.push_back({prefix, &kv});
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Ref &a, const Ref &b) {
                  return a.prefix != b.prefix ? a.prefix < b.prefix
                                              : a.kv->first < b.kv->first;
              });
    for (const Ref &r : sorted)
        fn(r.kv->first, r.kv->second.value);
}

void
MiniRedis::forEachUnordered(
    const std::function<void(const std::string &,
                             std::span<const std::uint8_t>)> &fn) const
{
    // bssd-lint: allow(det-unordered-iter) callers are order-insensitive (see the header)
    for (const auto &[key, entry] : store_)
        fn(key, entry.value);
}

} // namespace bssd::db::miniredis

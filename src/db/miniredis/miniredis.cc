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
    v.reserve(1 + 4 + key.size() + 4 + value.size());
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
    auto [e, inserted] = index_.emplace(key);
    if (inserted)
        undo_.push_back({key, std::nullopt});
    else if (e->logged != generation_)
        undo_.push_back({key, std::move(e->value)});
    e->logged = generation_;
    e->value.assign(value.begin(), value.end());
}

void
MiniRedis::erase(const std::string &key)
{
    const std::size_t slot = index_.slotOf(key);
    if (slot == index_.noSlot)
        return;
    Entry &e = index_.at(slot);
    if (e.logged != generation_)
        undo_.push_back({key, std::move(e.value)});
    index_.removeAt(slot);
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
                std::optional<std::int64_t> *result)
{
    commands_.add();
    std::int64_t v = 0;
    if (const Entry *e = index_.find(key)) {
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
    put(key, text);
    return logCommand(now, encodeCmd(cmdSet, key, text));
}

sim::Tick
MiniRedis::get(sim::Tick now, const std::string &key,
               std::optional<std::vector<std::uint8_t>> *out) const
{
    std::size_t bytes = key.size();
    const Entry *e = index_.find(key);
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
        if (it->value) {
            index_.emplace(it->key).first->value = std::move(*it->value);
        } else if (const std::size_t slot = index_.slotOf(it->key);
                   slot != index_.noSlot) {
            index_.removeAt(slot);
        }
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
        const Entry *e;
    };
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
    for (const Ref &r : sorted)
        fn(r.e->key, r.e->value);
}

void
MiniRedis::forEachUnordered(
    const std::function<void(const std::string &,
                             std::span<const std::uint8_t>)> &fn) const
{
    for (const Entry &e : index_.entries())
        fn(e.key, e.value);
}

} // namespace bssd::db::miniredis

#include "db/miniredis/miniredis.hh"

#include <algorithm>
#include <array>
#include <bit>
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

/** Record class sizes step by kGrain bytes up to kLinearBytes. */
constexpr std::size_t kGrain = 8;
constexpr std::size_t kLinearBytes = 1024;
constexpr std::size_t kLinearClasses = kLinearBytes / kGrain;

/** Refs sorted by their full keys: std::string_view order, the same as
 *  a std::map keyed by the text. */
template <class Ref, class KeyOf>
void
sortByFullKey(Ref *first, Ref *last, KeyOf keyOf)
{
    std::sort(first, last, [&](const Ref &a, const Ref &b) {
        return a.prefix != b.prefix ? a.prefix < b.prefix
                                    : keyOf(a.rec) < keyOf(b.rec);
    });
}

/**
 * Sort [first, last), whose prefixes agree above byte @p shift, on the
 * prefix bytes from @p shift down, then on the full keys where all 8
 * tie: an in-place MSD radix sort (American flag sort, McIlroy, Bostic
 * and McIlroy, 1993). Each pass counts one byte's values, then cycles
 * every ref into its bucket by swaps, so it needs no second array. A
 * range of up to kSmallRange refs goes to the full-key compare.
 */
template <class Ref, class KeyOf>
void
radixSort(Ref *first, Ref *last, int shift, KeyOf keyOf)
{
    constexpr std::ptrdiff_t kSmallRange = 32;
    for (;;) {
        if (last - first <= kSmallRange) {
            sortByFullKey(first, last, keyOf);
            return;
        }
        auto digit = [shift](const Ref &r) {
            return static_cast<std::size_t>((r.prefix >> shift) & 0xff);
        };
        std::array<std::size_t, 256> count{};
        for (const Ref *p = first; p != last; ++p)
            ++count[digit(*p)];
        // Every ref has the same byte here: nothing to move.
        if (count[digit(*first)] == static_cast<std::size_t>(last - first)) {
            if (shift == 0) {
                sortByFullKey(first, last, keyOf);
                return;
            }
            shift -= 8;
            continue;
        }
        std::array<Ref *, 256> next, end;
        Ref *p = first;
        for (std::size_t b = 0; b < 256; ++b) {
            next[b] = p;
            p += count[b];
            end[b] = p;
        }
        for (std::size_t b = 0; b < 256; ++b) {
            while (next[b] != end[b]) {
                Ref r = *next[b];
                for (std::size_t d = digit(r); d != b; d = digit(r))
                    std::swap(r, *next[d]++);
                *next[b]++ = r;
            }
        }
        for (std::size_t b = 0; b < 256; ++b) {
            if (count[b] < 2)
                continue;
            Ref *bucket = end[b] - count[b];
            if (shift == 0)
                sortByFullKey(bucket, end[b], keyOf);
            else
                radixSort(bucket, end[b], shift - 8, keyOf);
        }
        return;
    }
}

} // namespace

std::pair<std::size_t, std::size_t>
MiniRedis::RecordSlab::sizeClass(std::size_t bytes)
{
    if (bytes <= kLinearBytes) {
        const std::size_t index = (bytes - 1) / kGrain;
        return {index, (index + 1) * kGrain};
    }
    // 2^lg < bytes <= 2^(lg + 1), in four steps of 2^(lg - 2).
    const auto lg = static_cast<std::size_t>(std::bit_width(bytes - 1)) - 1;
    const std::size_t step = std::size_t(1) << (lg - 2);
    const std::size_t k = (bytes - (std::size_t(1) << lg) + step - 1) / step;
    return {kLinearClasses + 4 * (lg - 10) + k - 1,
            (std::size_t(1) << lg) + k * step};
}

std::size_t
MiniRedis::RecordSlab::classBytes(std::size_t bytes)
{
    return sizeClass(bytes).second;
}

std::uint8_t *
MiniRedis::RecordSlab::take(std::size_t bytes)
{
    const auto [index, size] = sizeClass(bytes);
    if (index < free_.size() && free_[index] != nullptr) {
        std::uint8_t *rec = free_[index];
        std::memcpy(&free_[index], rec, sizeof rec);
        return rec;
    }
    carved_ += size;
    if (size > blockBytes) {
        blocks_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(size));
        return blocks_.back().get();
    }
    // A record that does not fit the rest of the block starts a new
    // one; the rest stays unused.
    if (static_cast<std::size_t>(end_ - next_) < size) {
        blocks_.push_back(
            std::make_unique_for_overwrite<std::uint8_t[]>(blockBytes));
        next_ = blocks_.back().get();
        end_ = next_ + blockBytes;
    }
    return std::exchange(next_, next_ + size);
}

void
MiniRedis::RecordSlab::give(std::uint8_t *rec, std::size_t classBytes)
{
    const std::size_t index = sizeClass(classBytes).first;
    if (index >= free_.size())
        free_.resize(index + 1, nullptr);
    std::memcpy(rec, &free_[index], sizeof rec);
    free_[index] = rec;
}

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
MiniRedis::PreImageLog::add(
    std::string_view key, std::optional<std::span<const std::uint8_t>> value)
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
    nextGeneration();
    snapshotSeq_ = seq_;
    aof_.truncate(now);
    return now + sim::usOf(500);
}

void
MiniRedis::nextGeneration()
{
    if (generation_ == std::numeric_limits<std::uint32_t>::max())
        sim::panic("miniredis: rewrite generation ", generation_,
                   " would wrap");
    ++generation_;
}

MiniRedis::Entry
MiniRedis::newRecord(std::string_view key, std::size_t valueBytes)
{
    const std::size_t bytes =
        RecordSlab::classBytes(recordHeadBytes + key.size() + valueBytes);
    // The lengths and the capacity are 32-bit, as the AOF's are.
    if (bytes - recordHeadBytes > std::numeric_limits<std::uint32_t>::max())
        sim::panic("miniredis: a ", key.size(), "-byte key with a ",
                   valueBytes, "-byte value does not fit a record");
    std::uint8_t *rec = slab_.take(bytes);
    const auto keyBytes = static_cast<std::uint32_t>(key.size());
    std::memcpy(rec, &keyBytes, sizeof keyBytes);
    setValueBytesOf(rec, 0);
    std::copy(key.begin(), key.end(), rec + recordHeadBytes);
    return {rec, static_cast<std::uint32_t>(bytes - recordHeadBytes - keyBytes),
            0};
}

std::pair<MiniRedis::Entry *, bool>
MiniRedis::emplace(const HashedKey &key, std::size_t valueBytes)
{
    return index_.emplace(key.text, key.hash, [&](Entry &fresh) {
        fresh = newRecord(key.text, valueBytes);
    });
}

void
MiniRedis::assign(Entry &e, std::span<const std::uint8_t> value)
{
    if (value.size() > e.capacity) {
        Entry moved = newRecord(e.key(), value.size());
        moved.logged = e.logged;
        slab_.give(e.rec, e.recordBytes());
        e = moved;
    }
    setValueBytesOf(e.rec, static_cast<std::uint32_t>(value.size()));
    std::copy(value.begin(), value.end(),
              e.rec + recordHeadBytes + keyBytesOf(e.rec));
}

void
MiniRedis::removeAt(std::size_t slot)
{
    const Entry e = index_.at(slot);
    index_.removeAt(slot);
    slab_.give(e.rec, e.recordBytes());
}

void
MiniRedis::put(const HashedKey &key, std::span<const std::uint8_t> value)
{
    auto [e, inserted] = emplace(key, value.size());
    if (inserted)
        undo_.add(key.text, std::nullopt);
    else if (e->logged != generation_)
        undo_.add(key.text, e->value());
    e->logged = generation_;
    assign(*e, value);
}

void
MiniRedis::erase(const HashedKey &key)
{
    const std::size_t slot = index_.slotOf(key.text, key.hash);
    if (slot == index_.noSlot)
        return;
    const Entry &e = index_.at(slot);
    if (e.logged != generation_)
        undo_.add(key.text, e.value());
    removeAt(slot);
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
        const std::span<const std::uint8_t> value = e->value();
        const char *first = reinterpret_cast<const char *>(value.data());
        const char *last = first + value.size();
        const auto [end, ec] = std::from_chars(first, last, v);
        if (ec != std::errc() || end != last ||
            v == std::numeric_limits<std::int64_t>::max()) {
            // "value is not an integer or out of range": the command
            // is parsed and answered, nothing is written or logged.
            if (result)
                result->reset();
            return cpu(now, key.size() + value.size());
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
        bytes += valueBytesOf(e->rec);
    if (out) {
        if (e) {
            const std::span<const std::uint8_t> value = e->value();
            out->emplace(value.begin(), value.end());
        } else {
            out->reset();
        }
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
        [this](const std::string &text,
               const std::vector<std::uint8_t> *value) {
            const HashedKey key = hashed(text);
            if (value) {
                assign(*emplace(key, value->size()).first, *value);
            } else if (const std::size_t slot =
                           index_.slotOf(key.text, key.hash);
                       slot != index_.noSlot) {
                removeAt(slot);
            }
        });
    undo_.clear();
    nextGeneration();
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

template <class Fn>
void
MiniRedis::visitSorted(Fn &&fn) const
{
    // The sorted walk visits records in no memory order: start each
    // record's first line kHeadAhead references early and, kTailAhead
    // early, its last line, which the landed head's lengths locate.
    constexpr std::size_t kHeadAhead = 16;
    constexpr std::size_t kTailAhead = 8;
    const std::vector<Ref> sorted = sortedRefs();
    const std::size_t n = sorted.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kHeadAhead < n)
            __builtin_prefetch(sorted[i + kHeadAhead].rec);
        if (i + kTailAhead < n) {
            const std::uint8_t *rec = sorted[i + kTailAhead].rec;
            __builtin_prefetch(rec + recordHeadBytes + keyBytesOf(rec) +
                               valueBytesOf(rec) - 1);
        }
        fn(sorted[i].rec);
    }
}

std::uint64_t
MiniRedis::contentHash() const
{
    std::uint64_t h = 14695981039346656037ull; // FNV-1a offset basis
    // A record's key and value bytes are adjacent: one pass mixes the
    // key's bytes, then the value's.
    visitSorted([&h](const std::uint8_t *rec) {
        const std::uint8_t *p = rec + recordHeadBytes;
        const std::size_t n = keyBytesOf(rec) + valueBytesOf(rec);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull; // FNV-1a prime
        }
    });
    return h;
}

void
MiniRedis::forEachSorted(
    const std::function<void(std::string_view,
                             std::span<const std::uint8_t>)> &fn) const
{
    visitSorted([&fn](const std::uint8_t *rec) {
        fn(keyOf(rec), valueOf(rec));
    });
}

std::vector<MiniRedis::Ref>
MiniRedis::sortedRefs() const
{
    // Sort references to the records, not the records: the key's first
    // eight bytes, big-endian and zero-padded, order two keys exactly
    // as a byte-wise compare does unless they tie, and only ties fall
    // back to comparing the full keys.
    constexpr std::size_t kAhead = 8;
    const std::vector<Entry> &entries = index_.entries();
    std::vector<Ref> sorted;
    sorted.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i + kAhead < entries.size())
            __builtin_prefetch(entries[i + kAhead].rec);
        const std::string_view key = entries[i].key();
        std::uint64_t prefix = 0;
        for (std::size_t b = 0; b < 8; ++b) {
            prefix <<= 8;
            if (b < key.size())
                prefix |= static_cast<std::uint8_t>(key[b]);
        }
        sorted.push_back({prefix, entries[i].rec});
    }
    radixSort(sorted.data(), sorted.data() + sorted.size(), 56, keyOf);
    return sorted;
}

void
MiniRedis::forEachUnordered(
    const std::function<void(std::string_view,
                             std::span<const std::uint8_t>)> &fn) const
{
    // The entries stream in order; their records sit wherever they
    // were carved, so start each record's miss a few entries early.
    constexpr std::size_t kAhead = 8;
    const std::vector<Entry> &entries = index_.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i + kAhead < entries.size())
            prefetchRecordOf(entries[i + kAhead]);
        fn(entries[i].key(), entries[i].value());
    }
}

} // namespace bssd::db::miniredis

#include "db/minirocks/minirocks.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "wal/record.hh"

namespace bssd::db::minirocks
{

namespace
{

constexpr std::uint8_t opPut = 1;
constexpr std::uint8_t opDel = 2;
constexpr std::uint32_t manifestMagic = 0x324273aa; // "2Bs."

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
encodeKv(std::uint8_t op, const std::string &key,
         const std::optional<std::vector<std::uint8_t>> &value)
{
    std::vector<std::uint8_t> v;
    v.push_back(op);
    put32(v, static_cast<std::uint32_t>(key.size()));
    v.insert(v.end(), key.begin(), key.end());
    put32(v, value ? static_cast<std::uint32_t>(value->size()) : 0);
    if (value)
        v.insert(v.end(), value->begin(), value->end());
    return v;
}

} // namespace

MiniRocks::MiniRocks(wal::LogDevice &log, ssd::SsdDevice &data,
                     const RocksConfig &cfg)
    : log_(log), data_(data), cfg_(cfg), gc_(log)
{
    if (cfg_.dataRegionOffset + cfg_.dataRegionBytes >
        data_.capacityBytes()) {
        sim::fatal("minirocks data region exceeds device capacity");
    }
}

sim::Tick
MiniRocks::cpu(sim::Tick now, std::size_t bytes) const
{
    return now + cfg_.opCpu +
           static_cast<sim::Tick>(static_cast<double>(bytes) / 1024.0 *
                                  static_cast<double>(cfg_.cpuPerKib));
}

std::vector<std::uint8_t>
MiniRocks::serializeEntries(
    const std::map<std::string,
                   std::optional<std::vector<std::uint8_t>>> &entries)
{
    std::vector<std::uint8_t> v;
    put32(v, static_cast<std::uint32_t>(entries.size()));
    for (const auto &[k, val] : entries) {
        put32(v, static_cast<std::uint32_t>(k.size()));
        v.insert(v.end(), k.begin(), k.end());
        v.push_back(val ? 1 : 0);
        put32(v, val ? static_cast<std::uint32_t>(val->size()) : 0);
        if (val)
            v.insert(v.end(), val->begin(), val->end());
    }
    return v;
}

std::map<std::string, std::optional<std::vector<std::uint8_t>>>
MiniRocks::deserializeEntries(std::span<const std::uint8_t> bytes)
{
    std::map<std::string, std::optional<std::vector<std::uint8_t>>> out;
    std::size_t pos = 0;
    std::uint32_t count = get32(bytes, pos);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t klen = get32(bytes, pos);
        std::string key(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                        bytes.begin() +
                            static_cast<std::ptrdiff_t>(pos + klen));
        pos += klen;
        bool has = bytes[pos++] != 0;
        std::uint32_t vlen = get32(bytes, pos);
        if (has) {
            out[key] = std::vector<std::uint8_t>(
                bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                bytes.begin() + static_cast<std::ptrdiff_t>(pos + vlen));
        } else {
            out[key] = std::nullopt;
        }
        pos += vlen;
    }
    return out;
}

std::uint64_t
MiniRocks::allocData(std::uint64_t bytes)
{
    if (bytes > cfg_.dataRegionBytes)
        sim::fatal("minirocks SST larger than the data region");
    if (dataAllocPos_ + bytes > cfg_.dataRegionBytes)
        dataAllocPos_ = 0; // ring wrap; compaction retired old tables
    std::uint64_t off = cfg_.dataRegionOffset + dataAllocPos_;
    dataAllocPos_ += bytes;
    return off;
}

void
MiniRocks::writeManifest(sim::Tick now)
{
    std::vector<std::uint8_t> body;
    put64(body, flushedSeq_);
    put64(body, nextSstId_);
    put64(body, dataAllocPos_);
    put32(body, static_cast<std::uint32_t>(tables_.size()));
    for (const auto &t : tables_) {
        put64(body, t.offset);
        put64(body, t.bytes);
        put32(body, t.level);
        put64(body, t.id);
    }
    std::vector<std::uint8_t> blob;
    put32(blob, manifestMagic);
    put32(blob, wal::crc32c(body));
    put32(blob, static_cast<std::uint32_t>(body.size()));
    blob.insert(blob.end(), body.begin(), body.end());
    auto iv = data_.blockWrite(now, cfg_.manifestOffset, blob);
    data_.flush(iv.end);
}

sim::Tick
MiniRocks::flushMemtable(sim::Tick now)
{
    if (memtable_.empty())
        return now;
    flushes_.add();

    // The background flush thread serialises the immutable memtable
    // and writes it as an L0 table; the foreground only pays the
    // rotation bookkeeping. If flushes fall behind, the reservation
    // calendar makes the next rotation wait (write stalls).
    auto blob = serializeEntries(memtable_);
    Sst sst;
    sst.offset = allocData(blob.size());
    sst.bytes = blob.size();
    sst.level = 0;
    sst.id = nextSstId_++;
    sst.entries = memtable_;

    auto bg = flushThread_.reserve(now, sim::usOf(200));
    auto iv = data_.blockWrite(bg.end, sst.offset, blob);
    tables_.insert(tables_.begin(), std::move(sst));
    flushedSeq_ = seq_;
    writeManifest(iv.end);

    memtable_.clear();
    memtableBytes_ = 0;
    log_.truncate(now);
    gc_.reset();

    now = maybeCompact(now + sim::usOf(15));
    return now;
}

sim::Tick
MiniRocks::maybeCompact(sim::Tick now)
{
    if (l0Files() < cfg_.l0CompactionTrigger)
        return now;
    compactions_.add();

    // Merge every L0 table and the current L1 into one new L1 table;
    // newest data wins (tables_ is newest-first).
    std::map<std::string, std::optional<std::vector<std::uint8_t>>>
        merged;
    for (auto it = tables_.rbegin(); it != tables_.rend(); ++it)
        for (const auto &[k, v] : it->entries)
            merged[k] = v;
    // Drop tombstones at the bottom level.
    for (auto it = merged.begin(); it != merged.end();) {
        if (!it->second)
            it = merged.erase(it);
        else
            ++it;
    }

    auto blob = serializeEntries(merged);
    Sst sst;
    sst.offset = allocData(blob.size());
    sst.bytes = blob.size();
    sst.level = 1;
    sst.id = nextSstId_++;
    sst.entries = std::move(merged);

    auto bg = flushThread_.reserve(now, sim::usOf(500));
    auto iv = data_.blockWrite(bg.end, sst.offset, blob);
    tables_.clear();
    tables_.push_back(std::move(sst));
    writeManifest(iv.end);
    return now;
}

sim::Tick
MiniRocks::writeAndCommit(
    sim::Tick now, const std::string &key,
    const std::optional<std::vector<std::uint8_t>> &value)
{
    auto payload =
        encodeKv(value ? opPut : opDel, key, value);
    auto frame = wal::frameRecord(seq_, payload);
    ++seq_;
    now = log_.append(now, frame);
    now = gc_.commit(now);

    std::uint64_t delta = key.size() + (value ? value->size() : 0) + 32;
    memtable_[key] = value;
    memtableBytes_ += delta;
    if (memtableBytes_ >= cfg_.memtableBytes || log_.needsCheckpoint())
        now = flushMemtable(now);
    return now;
}

sim::Tick
MiniRocks::put(sim::Tick now, const std::string &key,
               std::span<const std::uint8_t> value)
{
    now = cpu(now, key.size() + value.size());
    return writeAndCommit(
        now, key,
        std::optional<std::vector<std::uint8_t>>(
            std::vector<std::uint8_t>(value.begin(), value.end())));
}

sim::Tick
MiniRocks::del(sim::Tick now, const std::string &key)
{
    now = cpu(now, key.size());
    return writeAndCommit(now, key, std::nullopt);
}

sim::Tick
MiniRocks::get(sim::Tick now, const std::string &key,
               std::optional<std::vector<std::uint8_t>> *out) const
{
    std::size_t bytes = key.size();
    const std::optional<std::vector<std::uint8_t>> *found = nullptr;
    if (auto it = memtable_.find(key); it != memtable_.end()) {
        found = &it->second;
    } else {
        for (const auto &t : tables_) {
            if (auto ti = t.entries.find(key); ti != t.entries.end()) {
                found = &ti->second;
                break;
            }
        }
    }
    if (found && *found)
        bytes += (*found)->size();
    if (out)
        *out = found ? *found : std::optional<std::vector<std::uint8_t>>();
    return cpu(now, bytes);
}

std::uint32_t
MiniRocks::l0Files() const
{
    std::uint32_t n = 0;
    for (const auto &t : tables_)
        n += t.level == 0 ? 1 : 0;
    return n;
}

std::uint32_t
MiniRocks::l1Files() const
{
    std::uint32_t n = 0;
    for (const auto &t : tables_)
        n += t.level == 1 ? 1 : 0;
    return n;
}

void
MiniRocks::recover()
{
    // 1. Reload the MANIFEST from the device (CRC-guarded).
    memtable_.clear();
    memtableBytes_ = 0;
    tables_.clear();

    std::vector<std::uint8_t> head(12);
    data_.blockRead(0, cfg_.manifestOffset, head);
    std::size_t pos = 0;
    bool have_manifest = get32(head, pos) == manifestMagic;
    std::uint32_t want_crc = get32(head, pos);
    std::uint32_t body_len = get32(head, pos);
    if (have_manifest && body_len < 64 * sim::MiB) {
        std::vector<std::uint8_t> body(body_len);
        data_.blockRead(0, cfg_.manifestOffset + 12, body);
        if (wal::crc32c(body) == want_crc) {
            pos = 0;
            flushedSeq_ = get64(body, pos);
            nextSstId_ = get64(body, pos);
            dataAllocPos_ = get64(body, pos);
            std::uint32_t count = get32(body, pos);
            for (std::uint32_t i = 0; i < count; ++i) {
                Sst sst;
                sst.offset = get64(body, pos);
                sst.bytes = get64(body, pos);
                sst.level = get32(body, pos);
                sst.id = get64(body, pos);
                // 2. Reload the table contents from the device.
                std::vector<std::uint8_t> blob(sst.bytes);
                data_.blockRead(0, sst.offset, blob);
                sst.entries = deserializeEntries(blob);
                tables_.push_back(std::move(sst));
            }
        } else {
            have_manifest = false;
        }
    }
    if (!have_manifest) {
        flushedSeq_ = 0;
        nextSstId_ = 1;
        dataAllocPos_ = 0;
    }

    // 3. Replay the WAL suffix: records past the last flushed
    //    sequence, strictly increasing.
    seq_ = flushedSeq_;
    gc_.reset();
    const std::vector<std::uint8_t> stream = log_.recoverContents();
    auto recs = wal::parseLogStream(stream, log_.recoveryChunkBytes(), -1);
    std::uint64_t last = 0;
    std::uint64_t kept = 0;
    bool first = true;
    for (const auto &r : recs) {
        if (r.sequence < flushedSeq_) {
            kept = r.end;
            continue; // already covered by an SST
        }
        if (first ? r.sequence != flushedSeq_ : r.sequence != last + 1)
            break; // gap or stale data from an older log generation
        first = false;
        last = r.sequence;
        kept = r.end;

        std::size_t p = 0;
        std::uint8_t op = r.payload[p++];
        std::uint32_t klen = get32(r.payload, p);
        std::string key(r.payload.begin() + static_cast<std::ptrdiff_t>(p),
                        r.payload.begin() +
                            static_cast<std::ptrdiff_t>(p + klen));
        p += klen;
        std::uint32_t vlen = get32(r.payload, p);
        if (op == opPut) {
            memtable_[key] = std::vector<std::uint8_t>(
                r.payload.begin() + static_cast<std::ptrdiff_t>(p),
                r.payload.begin() + static_cast<std::ptrdiff_t>(p + vlen));
            memtableBytes_ += klen + vlen + 32;
        } else {
            memtable_[key] = std::nullopt;
            memtableBytes_ += klen + 32;
        }
        seq_ = r.sequence + 1;
    }
    log_.resume(std::span(stream).first(kept));
}

} // namespace bssd::db::minirocks

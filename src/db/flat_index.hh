/**
 * @file
 * The stores' flat open-addressed index (DESIGN.md section 13):
 * MiniRedis keys its dataset by string, MiniPg its nodes by id.
 *
 * A dense vector of entries in no key order, and a power-of-two array
 * of open-addressed slots, at most half full, each packing the key
 * hash's top 32 bits with its entry's index + 1 (0 is an empty slot).
 * A key's probe starts at the slot its hash's top log2(slots) bits
 * name and walks linearly. A delete shifts the rest of the probe
 * chain back into the hole and moves the last entry into the freed
 * index, so the entry order, the only order a scan sees, follows from
 * the sequence of inserts and deletes alone.
 *
 * Homes come from the hash's top bits, so the hash must mix them:
 * libstdc++'s std::hash<std::uint64_t> is the identity, which would
 * home every small id to slot 0. Integer keys use MixHash64.
 *
 * An entry need not hold its key: MiniRedis's entries point at a
 * record that does, and its KeyOf reads the key from there.
 */

#ifndef BSSD_DB_FLAT_INDEX_HH
#define BSSD_DB_FLAT_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace bssd::db
{

/** A bijective 64-bit mix (the MurmurHash3 finalizer): every input
 *  bit reaches the top bits a FlatIndex homes by. */
struct MixHash64
{
    std::uint64_t
    operator()(std::uint64_t x) const
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ull;
        x ^= x >> 33;
        return x;
    }
};

/** Start loading the cache lines of @p *p: the lines of its first and
 *  last byte, so an object of up to 64 bytes that straddles two lines
 *  (an entry of a 16-byte-aligned vector may) is covered. A hint only. */
template <class T>
void
prefetchObject(const T *p)
{
    const auto *b = reinterpret_cast<const char *>(p);
    __builtin_prefetch(b);
    __builtin_prefetch(b + sizeof(T) - 1);
}

/** An entry's key: its member `key`. */
struct MemberKey
{
    template <class Entry>
    const auto &
    operator()(const Entry &e) const
    {
        return e.key;
    }
};

/**
 * The index. @p Entry is default-constructible, and @p KeyOf maps one
 * to its key. @p Hash maps a key, or anything the lookups are called
 * with, to 64 bits; lookups compare `KeyOf{}(entry) == query`.
 */
template <class Entry, class Hash, class KeyOf = MemberKey>
class FlatIndex
{
  public:
    /** What slotOf() returns for an absent key. */
    static constexpr std::size_t noSlot = ~std::size_t(0);
    /** Keys an index can hold: their slots, at most half full, must
     *  stay addressable by the 32 hash bits a slot keeps. */
    static constexpr std::size_t maxKeys = std::size_t(1) << 31;

    std::size_t size() const { return entries_.size(); }

    /** The live entries, densely packed in no key order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** The slot holding @p key, or noSlot. */
    template <class Q>
    std::size_t
    slotOf(const Q &key) const
    {
        return slotOf(key, Hash{}(key));
    }

    /** slotOf() for a key whose Hash{}(key) the caller has already
     *  computed; every lookup below has the same overload. */
    template <class Q>
    std::size_t
    slotOf(const Q &key, std::uint64_t hash) const
    {
        if (slots_.empty())
            return noSlot;
        const std::size_t i = probe(key, hash);
        return slots_[i] == 0 ? noSlot : i;
    }

    /** The entry @p slot points at. */
    Entry &at(std::size_t slot) { return entries_[indexAt(slot)]; }
    const Entry &at(std::size_t slot) const
    {
        return entries_[indexAt(slot)];
    }

    template <class Q>
    Entry *
    find(const Q &key, std::uint64_t hash)
    {
        const std::size_t slot = slotOf(key, hash);
        return slot == noSlot ? nullptr : &at(slot);
    }

    template <class Q>
    const Entry *
    find(const Q &key, std::uint64_t hash) const
    {
        const std::size_t slot = slotOf(key, hash);
        return slot == noSlot ? nullptr : &at(slot);
    }

    template <class Q>
    Entry *
    find(const Q &key)
    {
        return find(key, Hash{}(key));
    }

    template <class Q>
    const Entry *
    find(const Q &key) const
    {
        return find(key, Hash{}(key));
    }

    /** The entry of @p key, appended with its member `key` set and
     *  its other members default when absent; second is whether it
     *  was. */
    template <class Q>
    std::pair<Entry *, bool>
    emplace(const Q &key)
    {
        return emplace(key, Hash{}(key), [&key](Entry &e) { e.key = key; });
    }

    /** The entry of @p key; when absent, a default entry is appended
     *  and handed to @p init, which must give it @p key as its key.
     *  second is whether the key was absent. */
    template <class Q, class Init>
    std::pair<Entry *, bool>
    emplace(const Q &key, std::uint64_t hash, Init &&init)
    {
        if (slots_.empty())
            grow();
        std::size_t i = probe(key, hash);
        if (slots_[i] != 0)
            return {&at(i), false};
        if (2 * (entries_.size() + 1) > slots_.size()) {
            grow();
            i = probe(key, hash);
        }
        if (entries_.size() == maxKeys)
            sim::panic("flat index: more than ", maxKeys, " keys");
        init(entries_.emplace_back());
        slots_[i] = (hash & ~indexMask) | entries_.size();
        return {&entries_.back(), true};
    }

    /** Drop the entry @p slot points at. */
    void
    removeAt(std::size_t slot)
    {
        const std::size_t mask = slots_.size() - 1;
        const std::size_t index = indexAt(slot);
        // Backward-shift deletion: walk the rest of the probe chain and
        // pull back into the hole every slot whose home does not lie
        // after the hole, so no probe ever stops early at a gap.
        std::size_t hole = slot;
        for (std::size_t i = (slot + 1) & mask; slots_[i] != 0;
             i = (i + 1) & mask) {
            const std::size_t home = slots_[i] >> slotShift_;
            if (((i - home) & mask) >= ((i - hole) & mask)) {
                slots_[hole] = slots_[i];
                hole = i;
            }
        }
        slots_[hole] = 0;
        // Keep the entries dense: the last one moves into the freed
        // index and its slot is re-pointed there.
        const std::size_t last = entries_.size() - 1;
        if (index != last) {
            entries_[index] = std::move(entries_[last]);
            std::size_t i = Hash{}(KeyOf{}(entries_[index])) >> slotShift_;
            while ((slots_[i] & indexMask) != last + 1)
                i = (i + 1) & mask;
            slots_[i] = (slots_[i] & ~indexMask) | (index + 1);
        }
        entries_.pop_back();
    }

    /** Slots allocated (a power of two, or 0 before the first key). */
    std::size_t slotCount() const { return slots_.size(); }

    /** @name Prefetch hints (group prefetching, DESIGN.md section 13)
     *
     * A batch that knows its next keys starts their cache misses a few
     * lookups early: first the slot a key's hash homes on, then, once
     * that line has landed, the entry the slot's tag points at, then
     * what the entry points at. A hint changes nothing and reads only
     * what the lookup reads; one made stale by the changes in between
     * costs a cache line, not a result.
     * @{ */

    /** Start loading the slot a key with hash @p hash homes on. */
    void
    prefetchSlot(std::uint64_t hash) const
    {
        if (!slots_.empty())
            __builtin_prefetch(&slots_[hash >> slotShift_]);
    }

    /** The entry of the first slot from @p hash's home whose tag
     *  matches, or null when the probe meets an empty slot first: the
     *  entry a lookup with this hash most likely finds. It compares no
     *  key, so it reads no more than the slots (and the caller the
     *  entry), but another key whose tag matches can be what it names. */
    const Entry *
    entryHint(std::uint64_t hash) const
    {
        if (slots_.empty())
            return nullptr;
        const std::size_t mask = slots_.size() - 1;
        const std::uint64_t tag = hash & ~indexMask;
        for (std::size_t i = hash >> slotShift_; slots_[i] != 0;
             i = (i + 1) & mask) {
            if ((slots_[i] & ~indexMask) == tag)
                return &entries_[indexAt(i)];
        }
        return nullptr;
    }

    /** Start loading entryHint(@p hash), if any. */
    void
    prefetchEntry(std::uint64_t hash) const
    {
        if (const Entry *e = entryHint(hash))
            prefetchObject(e);
    }
    /** @} */

  private:
    /** A slot's low 32 bits: entry index + 1 (0 = empty slot). */
    static constexpr std::uint64_t indexMask = 0xffffffff;
    /** Slot count of an index's first key. */
    static constexpr std::size_t minSlots = 16;

    std::vector<Entry> entries_;
    std::vector<std::uint64_t> slots_;
    /** 64 - log2(slots_.size()): a hash's (or slot's) home is it
     *  shifted right by this. */
    unsigned slotShift_ = 64;

    std::size_t
    indexAt(std::size_t slot) const
    {
        return (slots_[slot] & indexMask) - 1;
    }

    /** The slot holding @p key (whose hash is @p hash), or the empty
     *  slot that ends its probe. Needs at least one slot. */
    template <class Q>
    std::size_t
    probe(const Q &key, std::uint64_t hash) const
    {
        const std::size_t mask = slots_.size() - 1;
        const std::uint64_t tag = hash & ~indexMask;
        for (std::size_t i = hash >> slotShift_;; i = (i + 1) & mask) {
            const std::uint64_t s = slots_[i];
            if (s == 0 || ((s & ~indexMask) == tag &&
                           KeyOf{}(entries_[(s & indexMask) - 1]) == key)) {
                return i;
            }
        }
    }

    /** Double the slot array (or create it) and re-place every slot. */
    void
    grow()
    {
        const std::vector<std::uint64_t> old = std::exchange(
            slots_, std::vector<std::uint64_t>(
                        std::max(minSlots, 2 * slots_.size())));
        slotShift_ =
            64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
        // A slot carries its hash's top 32 bits, which hold the home,
        // so re-placing it needs neither the key nor the entry.
        const std::size_t mask = slots_.size() - 1;
        for (const std::uint64_t s : old) {
            if (s == 0)
                continue;
            std::size_t i = s >> slotShift_;
            while (slots_[i] != 0)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }
};

} // namespace bssd::db

#endif // BSSD_DB_FLAT_INDEX_HH

/**
 * @file
 * Model tests for the stores' flat open-addressed index: random
 * inserts, lookups and deletes checked against a std::map, on dense
 * small integer ids and on probe chains that wrap past the last slot.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "db/flat_index.hh"
#include "sim/rng.hh"

using namespace bssd;

namespace
{

struct Entry
{
    std::uint64_t key = 0;
    std::uint64_t value = 0;
};

/** Homes every key on the last slot, whatever the slot count, so each
 *  probe chain starts there and wraps around to slot 0. The top 32
 *  bits (a slot's tag) are equal for all keys, so only the key compare
 *  tells them apart. */
struct WrapHash
{
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return ~std::uint64_t(0) - key % 7;
    }
};

/** Check @p index against @p model: sizes, every model key found with
 *  its value, keys outside the model absent, entries dense. */
template <class Index>
void
expectMatches(const Index &index,
              const std::map<std::uint64_t, std::uint64_t> &model,
              std::uint64_t keySpace)
{
    ASSERT_EQ(index.size(), model.size());
    ASSERT_EQ(index.entries().size(), model.size());
    EXPECT_TRUE(index.slotCount() == 0 ||
                std::has_single_bit(index.slotCount()));
    EXPECT_GE(index.slotCount(), 2 * index.size());
    for (std::uint64_t k = 0; k < keySpace; ++k) {
        const Entry *e = index.find(k);
        const auto it = model.find(k);
        if (it == model.end()) {
            EXPECT_EQ(e, nullptr) << "key " << k;
            EXPECT_EQ(index.slotOf(k), Index::noSlot) << "key " << k;
        } else {
            ASSERT_NE(e, nullptr) << "key " << k;
            EXPECT_EQ(e->value, it->second) << "key " << k;
        }
    }
    std::set<std::uint64_t> seen;
    for (const Entry &e : index.entries()) {
        EXPECT_TRUE(model.contains(e.key)) << "key " << e.key;
        EXPECT_TRUE(seen.insert(e.key).second) << "twice: " << e.key;
    }
}

/** Seeded inserts, overwrites and deletes over [0, keySpace), checked
 *  in full every @p checkEvery operations, then a full drain. */
template <class Hash>
void
runModel(std::uint64_t keySpace, int ops, std::uint64_t seed,
         int checkEvery)
{
    using Index = db::FlatIndex<Entry, Hash>;
    Index index;
    std::map<std::uint64_t, std::uint64_t> model;
    sim::Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t key = rng.nextBelow(keySpace);
        if (rng.chance(0.6)) {
            const std::uint64_t value = rng.next();
            auto [e, inserted] = index.emplace(key);
            EXPECT_EQ(inserted, !model.contains(key));
            EXPECT_EQ(e->key, key);
            e->value = value;
            model[key] = value;
        } else if (const std::size_t slot = index.slotOf(key);
                   slot != Index::noSlot) {
            EXPECT_EQ(index.at(slot).key, key);
            index.removeAt(slot);
            EXPECT_EQ(model.erase(key), 1u);
        } else {
            EXPECT_FALSE(model.contains(key));
        }
        if (op % checkEvery == 0)
            expectMatches(index, model, keySpace);
    }
    expectMatches(index, model, keySpace);
    // Drain it: every delete keeps the survivors reachable.
    for (int n = 1; !model.empty(); ++n) {
        const std::uint64_t key = model.begin()->first;
        index.removeAt(index.slotOf(key));
        model.erase(model.begin());
        if (n % checkEvery == 0)
            expectMatches(index, model, keySpace);
    }
    EXPECT_EQ(index.size(), 0u);
}

} // namespace

TEST(FlatIndex, MixHashSpreadsSmallIds)
{
    // std::hash<std::uint64_t> is the identity in libstdc++: ids below
    // 2^32 would all home on slot 0. The mix reaches the top bits.
    const db::MixHash64 h;
    std::set<std::uint64_t> homes;
    for (std::uint64_t id = 0; id < 64; ++id)
        homes.insert(h(id) >> 58);
    EXPECT_GT(homes.size(), 32u);
}

TEST(FlatIndex, DenseSmallIdsMatchAMapModel)
{
    runModel<db::MixHash64>(512, 6000, 11, 16);
    runModel<db::MixHash64>(20'000, 30'000, 12, 2000);
}

TEST(FlatIndex, WrappingProbeChainsMatchAMapModel)
{
    // Every key homes on the last slot: chains wrap to slot 0, and a
    // delete's backward shift moves slots across the wrap.
    runModel<WrapHash>(48, 4000, 13, 1);
}

namespace
{

/** Homes every key below 2^(32 - log2(slots)) on the last slot, with
 *  a distinct tag per key: a probe walks past the other keys' slots,
 *  around the array's end, to its own. */
struct ChainHash
{
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return ~std::uint64_t(0) - (key << 32);
    }
};

/** Every slot, and the entry each key in [0, keySpace) finds. */
template <class Index>
std::vector<std::uint64_t>
lookups(const Index &index, std::uint64_t keySpace)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 0; k < keySpace; ++k) {
        const Entry *e = index.find(k);
        out.push_back(index.slotOf(k));
        out.push_back(e ? e->value : ~std::uint64_t(0));
    }
    return out;
}

/** Call every hint for every key in [0, keySpace), present or not,
 *  and check they changed nothing a caller can see. Every key's tag
 *  is its own, so entryHint() must name the entry find() finds, or
 *  none. */
template <class Index, class Hash>
void
expectHintsChangeNothing(const Index &index, std::uint64_t keySpace)
{
    const std::size_t size = index.size();
    const std::size_t slots = index.slotCount();
    const std::vector<std::uint64_t> before = lookups(index, keySpace);
    for (std::uint64_t k = 0; k < keySpace; ++k) {
        index.prefetchSlot(Hash{}(k));
        index.prefetchEntry(Hash{}(k));
        EXPECT_EQ(index.entryHint(Hash{}(k)), index.find(k)) << "key " << k;
    }
    EXPECT_EQ(index.size(), size);
    EXPECT_EQ(index.slotCount(), slots);
    EXPECT_EQ(lookups(index, keySpace), before);
}

} // namespace

TEST(FlatIndex, PrefetchHintsChangeNothing)
{
    // An empty index has no slots to read.
    db::FlatIndex<Entry, db::MixHash64> empty;
    expectHintsChangeNothing<decltype(empty), db::MixHash64>(empty, 64);
    EXPECT_EQ(empty.slotCount(), 0u);

    // A probe chain from the last slot that wraps to slot 0: 7 keys in
    // 16 slots fill slots 15 and 0..5, so the last key's hint walks
    // the whole chain across the wrap. Keys 7..9 are absent; their
    // hints walk it to the empty slot that ends it.
    db::FlatIndex<Entry, ChainHash> chain;
    for (std::uint64_t k = 0; k < 7; ++k)
        chain.emplace(k).first->value = 100 + k;
    ASSERT_EQ(chain.slotCount(), 16u);
    EXPECT_EQ(chain.slotOf(std::uint64_t(0)), 15u);
    EXPECT_EQ(chain.slotOf(std::uint64_t(6)), 5u);
    expectHintsChangeNothing<decltype(chain), ChainHash>(chain, 10);

    // A populated index after deletes, hints on present and absent ids.
    db::FlatIndex<Entry, db::MixHash64> mixed;
    for (std::uint64_t k = 0; k < 300; ++k)
        mixed.emplace(k).first->value = k * 3;
    for (std::uint64_t k = 0; k < 300; k += 4)
        mixed.removeAt(mixed.slotOf(k));
    expectHintsChangeNothing<decltype(mixed), db::MixHash64>(mixed, 400);
}

/**
 * @file
 * Tests for the canonical tracepoint name table
 * (src/sim/tracepoint.hh). A static_assert in the header already
 * proves every name unique and well formed; these tests pin the
 * grammar predicate behind it (the one bssd-lint's xcheck-tracepoint
 * also uses) and check that tpFromName() is the exact inverse of
 * tpName().
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/tracepoint.hh"

using namespace bssd::sim;

TEST(Tracepoint, NameRoundTripsForEveryEnumerator)
{
    for (std::uint32_t i = 0; i < tpCount; ++i) {
        const Tp tp = static_cast<Tp>(i);
        const std::string name = tpName(tp);
        auto back = tpFromName(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, tp) << name;
    }
}

TEST(Tracepoint, WellFormedPredicateRejectsMalformedNames)
{
    // The "layer.step" grammar: a lowercase namespace, one dot, then
    // letters and digits starting with a letter. "?" is what tpName()
    // returns for an enumerator with no case.
    for (const char *bad : {"?", "a.b.c", "A.b", "a.b_c", "a.", ".b",
                            "a.1b"})
        EXPECT_FALSE(tpNameWellFormed(bad)) << bad;
    EXPECT_TRUE(tpNameWellFormed("ba.dumpChunk"));
    EXPECT_TRUE(tpNameWellFormed("wc.evict2"));
}

TEST(Tracepoint, NamesAreUniqueAndWellFormed)
{
    std::set<std::string> seen;
    for (std::uint32_t i = 0; i < tpCount; ++i) {
        const std::string name = tpName(static_cast<Tp>(i));
        EXPECT_TRUE(tpNameWellFormed(name)) << name;
        EXPECT_TRUE(seen.insert(name).second) << "duplicate: " << name;
    }
    EXPECT_EQ(seen.size(), tpCount);
}

TEST(Tracepoint, UnknownNamesResolveToNothing)
{
    EXPECT_FALSE(tpFromName("").has_value());
    EXPECT_FALSE(tpFromName("wc").has_value());
    EXPECT_FALSE(tpFromName("wc.").has_value());
    EXPECT_FALSE(tpFromName("wc.evictx").has_value());
    EXPECT_FALSE(tpFromName("WC.EVICT").has_value());
    EXPECT_FALSE(tpFromName("nand.erase.suspend").has_value());
    EXPECT_FALSE(tpFromName("?").has_value());
}

TEST(Tracepoint, RoundTripIsConstexpr)
{
    static_assert(tpFromName("wc.evict") == Tp::wcEvict);
    static_assert(tpFromName("nand.eraseSuspend") == Tp::nandEraseSuspend);
    static_assert(!tpFromName("not.aTracepoint").has_value());
    SUCCEED();
}

/**
 * @file
 * Unit tests for counters and the log-linear histogram.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace bssd::sim;

TEST(Counter, Accumulates)
{
    Counter c("ops");
    c.add();
    c.add(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SmallValuesAreExact)
{
    // Values below the sub-bucket count land in exact unit buckets.
    Histogram h;
    for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v)
        h.record(v);
    for (double p : {0.0, 25.0, 50.0, 75.0, 100.0}) {
        std::uint64_t expect = static_cast<std::uint64_t>(
            p / 100.0 * (Histogram::kSubBuckets - 1) + 0.5);
        EXPECT_EQ(h.percentile(p), expect) << "p=" << p;
    }
}

TEST(Histogram, ExactAggregates)
{
    Histogram h;
    std::uint64_t sum = 0;
    for (std::uint64_t v : {3u, 70000u, 12u, 900u, 12345678u}) {
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), sum);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), 12345678u);
}

TEST(Histogram, RelativeErrorBound)
{
    // Every recorded value, read back as the percentile at its rank,
    // must sit within the documented relative error.
    Histogram h;
    std::vector<std::uint64_t> values;
    Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform spread over ~7 decades, the shape of latencies.
        std::uint64_t v = 1ull << rng.nextBelow(24);
        v += rng.nextBelow(v);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
        auto idx = static_cast<std::size_t>(
            p / 100.0 * static_cast<double>(values.size() - 1));
        double exact = static_cast<double>(values[idx]);
        double est = static_cast<double>(h.percentile(p));
        EXPECT_NEAR(est, exact, exact * Histogram::kRelativeError + 1.0)
            << "p=" << p;
    }
}

TEST(Histogram, AgreesWithDistributionWithinBound)
{
    // Against the exact empirical distribution of the same stream (a
    // sorted copy, same llround nearest-rank rule) every percentile
    // must sit within the midpoint bound the class comment documents:
    // half a sub-bucket, kRelativeError / 2 of the exact value.
    Histogram h("hist");
    std::vector<std::uint64_t> sorted;
    Rng rng(4242);
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t v = 100 + rng.nextBelow(1'000'000);
        sorted.push_back(v);
        h.record(v);
    }
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.1, 5.0, 50.0, 95.0, 99.0, 99.9}) {
        auto rank = static_cast<std::size_t>(std::llround(
            p / 100.0 * static_cast<double>(sorted.size() - 1)));
        double ref = static_cast<double>(sorted[rank]);
        double est = static_cast<double>(h.percentile(p));
        EXPECT_LE(std::abs(est - ref), ref * Histogram::kRelativeError / 2)
            << "p=" << p;
    }
}

TEST(Histogram, PercentileEdges)
{
    Histogram h;
    h.record(1000);
    EXPECT_EQ(h.percentile(0), 1000u);
    EXPECT_EQ(h.percentile(50), 1000u);
    EXPECT_EQ(h.percentile(100), 1000u);
    h.record(4000);
    EXPECT_EQ(h.percentile(0), 1000u);
    EXPECT_EQ(h.percentile(100), 4000u);
}

TEST(Histogram, MergeMatchesCombinedStream)
{
    Histogram a("a"), b("b"), all("all");
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = rng.nextBelow(1 << 20);
        (i % 2 ? a : b).record(v);
        all.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    for (double p : {10.0, 50.0, 99.0})
        EXPECT_EQ(a.percentile(p), all.percentile(p)) << "p=" << p;
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.record(123456);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(99), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(Histogram, HugeValuesDoNotOverflowIndex)
{
    Histogram h;
    h.record(~std::uint64_t(0));
    h.record(1ull << 63);
    h.record(0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.max(), ~std::uint64_t(0));
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(100), ~std::uint64_t(0));
}

TEST(Histogram, PercentileIsMonotoneInP)
{
    // Monotonicity must hold across bucket-group boundaries (values
    // span many power-of-two decades, including the exact sub-bucket
    // range below kSubBuckets).
    Histogram h("mono");
    Rng rng(32);
    for (int i = 0; i < 5000; ++i)
        h.record(rng.next() >> (rng.nextBelow(60)));
    std::uint64_t prev = 0;
    for (double p = 0; p <= 100.0; p += 0.5) {
        std::uint64_t v = h.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        prev = v;
    }
}

TEST(Histogram, MergePreservesPercentileMonotonicity)
{
    // Merge two histograms with disjoint ranges and walk the full
    // percentile curve: the spliced distribution must still be
    // monotone and the seam must sit between the two ranges.
    Histogram low("low"), high("high");
    Rng rng(33);
    for (int i = 0; i < 3000; ++i) {
        low.record(rng.nextBelow(1000));
        high.record((1 << 20) + rng.nextBelow(1 << 20));
    }
    low.merge(high);
    EXPECT_EQ(low.count(), 6000u);
    std::uint64_t prev = 0;
    for (double p = 0; p <= 100.0; p += 0.25) {
        std::uint64_t v = low.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        prev = v;
    }
    // Below the seam the answers come from the low half, above from
    // the high half (1/32 relative error at the boundary).
    EXPECT_LT(low.percentile(25), 1100u);
    EXPECT_GT(low.percentile(75), 1000000u);
}

TEST(Histogram, ResetZeroesMinMaxAndBuckets)
{
    Histogram h("hm");
    h.record(3);
    h.record(999999);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    for (unsigned i = 0; i < Histogram::bucketCount(); ++i)
        EXPECT_EQ(h.bucketAt(i), 0u) << "bucket " << i;
    h.record(17);
    EXPECT_EQ(h.min(), 17u);
    EXPECT_EQ(h.max(), 17u);
    EXPECT_EQ(h.percentile(50), 17u);
}

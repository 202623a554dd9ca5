/**
 * @file
 * Unit tests for the shard router's sliding-window p99.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "host/shard_router.hh"
#include "sim/rng.hh"

using namespace bssd;
using bssd::host::ShardRouter;

TEST(ShardRouter, WindowP99MatchesFullSortNearestRank)
{
    // Every window fill from 1 to 128 samples, drawn from a narrow
    // range so most windows hold duplicates: the selected rank must be
    // the value a full sort puts there.
    EXPECT_EQ(ShardRouter::windowP99Of({}), 0u);
    sim::Rng rng(5);
    for (std::size_t n = 1; n <= ShardRouter::kLatencyWindow; ++n) {
        for (std::uint64_t spread : {4u, 1000u}) {
            std::vector<std::uint64_t> window(n);
            for (auto &v : window)
                v = rng.nextBelow(spread);
            std::vector<std::uint64_t> sorted = window;
            std::sort(sorted.begin(), sorted.end());
            const std::size_t rank = std::min(n * 99 / 100, n - 1);
            ASSERT_EQ(ShardRouter::windowP99Of(window), sorted[rank])
                << n << " samples, spread " << spread;
        }
    }
}

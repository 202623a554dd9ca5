/**
 * @file
 * Tests for the canonical span vocabulary (src/sim/span_names.hh).
 * static_asserts in the header keep both tables strictly ascending;
 * these tests pin the predicates behind them.
 */

#include <gtest/gtest.h>

#include "sim/span_names.hh"

using namespace bssd::sim;

TEST(SpanNames, SortPredicatesRejectMalformedTables)
{
    EXPECT_TRUE(spanTableSorted(kSpanNames));
    EXPECT_TRUE(phaseTableSorted(kPhaseNames));

    const SpanName outOfOrder[] = {{"wal", "commit"}, {"ba", "flush"}};
    EXPECT_FALSE(spanTableSorted(outOfOrder));
    const SpanName sameCatOutOfOrder[] = {{"ba", "sync"}, {"ba", "pin"}};
    EXPECT_FALSE(spanTableSorted(sameCatOutOfOrder));
    const SpanName duplicated[] = {{"ba", "pin"}, {"ba", "pin"}};
    EXPECT_FALSE(spanTableSorted(duplicated));

    const char *const duplicatedPhase[] = {"dma", "dma"};
    EXPECT_FALSE(phaseTableSorted(duplicatedPhase));
    const char *const phaseOutOfOrder[] = {"media", "dma"};
    EXPECT_FALSE(phaseTableSorted(phaseOutOfOrder));
}

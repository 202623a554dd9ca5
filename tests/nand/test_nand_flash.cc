/**
 * @file
 * Unit tests for the NAND flash array model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "nand/nand_flash.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

using namespace bssd;
using namespace bssd::nand;

namespace
{

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i);
    return v;
}

/**
 * Die-striped PPA stream the way the FTL allocates: runs of
 * @p runPages consecutive pages on one die, then the next die. The
 * default run is programChunkBytes/pageSize, so programs chunk into
 * multi-plane operations; pass 1 to spread reads one page per die.
 */
std::vector<Ppa>
stripedPpas(const NandConfig &cfg, std::uint64_t pages,
            std::uint64_t runPages = 0)
{
    const auto &g = cfg.geometry;
    const std::uint64_t chunkPages =
        runPages != 0 ? runPages
                      : std::max<std::uint64_t>(
                            1, cfg.timing.programChunkBytes / g.pageSize);
    std::vector<std::uint64_t> next(g.totalDies(), 0);
    std::vector<Ppa> ppas;
    ppas.reserve(pages);
    std::uint32_t die = 0;
    while (ppas.size() < pages) {
        for (std::uint64_t k = 0; k < chunkPages && ppas.size() < pages;
             ++k) {
            const std::uint64_t p = next[die]++;
            ppas.push_back(
                Ppa{die, static_cast<std::uint32_t>(p / g.pagesPerBlock),
                    static_cast<std::uint32_t>(p % g.pagesPerBlock)});
        }
        die = (die + 1) % g.totalDies();
    }
    return ppas;
}

} // namespace

TEST(NandFlash, ProgramThenReadBack)
{
    NandFlash flash(NandConfig::tiny());
    auto data = pattern(4096, 7);
    flash.programPage(Ppa{0, 0, 0}, data);
    std::vector<std::uint8_t> out(4096);
    flash.readPage(Ppa{0, 0, 0}, out);
    EXPECT_EQ(out, data);
}

TEST(NandFlash, UnwrittenPageReadsErased)
{
    NandFlash flash(NandConfig::tiny());
    std::vector<std::uint8_t> out(4096, 0);
    flash.readPage(Ppa{1, 2, 3}, out);
    for (auto b : out)
        ASSERT_EQ(b, 0xff);
}

TEST(NandFlash, InOrderProgrammingEnforced)
{
    NandFlash flash(NandConfig::tiny());
    auto data = pattern(4096, 1);
    flash.programPage(Ppa{0, 0, 0}, data);
    // Skipping page 1 must panic (NAND in-order rule).
    EXPECT_THROW(flash.programPage(Ppa{0, 0, 2}, data), sim::SimPanic);
    // Rewriting page 0 without erase must panic too.
    EXPECT_THROW(flash.programPage(Ppa{0, 0, 0}, data), sim::SimPanic);
}

TEST(NandFlash, EraseResetsBlock)
{
    NandFlash flash(NandConfig::tiny());
    auto data = pattern(4096, 3);
    flash.programPage(Ppa{0, 1, 0}, data);
    EXPECT_TRUE(flash.isProgrammed(Ppa{0, 1, 0}));
    flash.eraseBlock(0, 1);
    EXPECT_FALSE(flash.isProgrammed(Ppa{0, 1, 0}));
    EXPECT_EQ(flash.writePointer(0, 1), 0u);
    EXPECT_EQ(flash.eraseCount(0, 1), 1u);
    // Programming page 0 again now succeeds.
    flash.programPage(Ppa{0, 1, 0}, data);
}

TEST(NandFlash, ShortProgramPadsWithErasedBytes)
{
    NandFlash flash(NandConfig::tiny());
    auto data = pattern(100, 9);
    flash.programPage(Ppa{0, 0, 0}, data);
    std::vector<std::uint8_t> out(4096);
    flash.readPage(Ppa{0, 0, 0}, out);
    for (std::size_t i = 0; i < 100; ++i)
        ASSERT_EQ(out[i], data[i]);
    for (std::size_t i = 100; i < 4096; ++i)
        ASSERT_EQ(out[i], 0xff);
}

TEST(NandFlash, OutOfRangePpaPanics)
{
    NandFlash flash(NandConfig::tiny());
    std::vector<std::uint8_t> out(4096);
    EXPECT_THROW(flash.readPage(Ppa{99, 0, 0}, out), sim::SimPanic);
    EXPECT_THROW(flash.readPage(Ppa{0, 99, 0}, out), sim::SimPanic);
    EXPECT_THROW(flash.readPage(Ppa{0, 0, 99}, out), sim::SimPanic);
    // The per-block queries range-check too: an out-of-range (die,
    // block) must not read some other block's state.
    const auto &g = flash.config().geometry;
    const std::uint32_t dies = g.totalDies();
    const std::uint32_t blocks = g.blocksPerDie;
    EXPECT_THROW(flash.writePointer(dies, 0), sim::SimPanic);
    EXPECT_THROW(flash.writePointer(0, blocks), sim::SimPanic);
    EXPECT_THROW(flash.eraseCount(dies, 0), sim::SimPanic);
    EXPECT_THROW(flash.eraseCount(0, blocks), sim::SimPanic);
    EXPECT_THROW(flash.isBad(dies, 0), sim::SimPanic);
    EXPECT_THROW(flash.isBad(0, blocks), sim::SimPanic);
    EXPECT_THROW(flash.markBad(0, blocks), sim::SimPanic);
    EXPECT_THROW(flash.eraseBlock(dies, 0), sim::SimPanic);
    EXPECT_EQ(flash.writePointer(dies - 1, blocks - 1), 0u);
    EXPECT_EQ(flash.eraseCount(dies - 1, blocks - 1), 0u);
    EXPECT_FALSE(flash.isBad(dies - 1, blocks - 1));
}

TEST(NandFlash, ReusedFramesHoldOnlyNewData)
{
    // Erased blocks hand their page frames back to the array's pool
    // and later blocks program into them. A reused frame must show
    // only what its new page was programmed with; pages whose program
    // failed, and pages past the write pointer, must read erased even
    // where the frame still holds an earlier block's bytes.
    NandFlash flash(NandConfig::tiny());
    const std::uint32_t ps = flash.config().geometry.pageSize;
    const std::uint32_t ppb = flash.config().geometry.pagesPerBlock;
    sim::FaultPlan plan;
    // Program hits (one per programPage call, in order below): A's
    // page 1 in round 1 (a fresh frame), D's page 2 in round 2 (a
    // reused frame that held round-1 data).
    plan.nandProgramFailHits = {1, 14};
    // Erase hits: C's erase fails, so C keeps its pages.
    plan.nandEraseFailHits = {2};
    sim::FaultInjector faults(plan);
    flash.setFaultInjector(&faults);

    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
             std::vector<std::uint8_t>>
        want;
    std::uint8_t seed = 1;
    auto program = [&](std::uint32_t die, std::uint32_t block,
                       std::uint32_t first, std::uint32_t end,
                       std::size_t bytes) {
        for (std::uint32_t p = first; p < end; ++p) {
            auto data = pattern(bytes, seed++);
            if (flash.programPage(Ppa{die, block, p}, data)) {
                data.resize(ps, 0xff);
                want[{die, block, p}] = data;
            }
        }
    };
    auto erase = [&](std::uint32_t die, std::uint32_t block) {
        const bool ok = flash.eraseBlock(die, block);
        if (ok) {
            for (std::uint32_t p = 0; p < ppb; ++p)
                want.erase({die, block, p});
        }
        return ok;
    };

    // Round 1: A = (0,0) and B = (1,0) program five pages each, C =
    // (2,0) two; A's page 1 fails. A and B are erased, C's erase fails.
    program(0, 0, 0, 5, ps);
    program(1, 0, 0, 5, ps);
    program(2, 0, 0, 2, ps);
    EXPECT_FALSE(flash.isProgrammed(Ppa{0, 0, 1}));
    EXPECT_TRUE(erase(0, 0));
    EXPECT_TRUE(erase(1, 0));
    EXPECT_FALSE(erase(2, 0));
    // Round 2 takes A's and B's frames back: D = (3,1) programs three
    // pages, its page 2 failing; E = (0,2) five pages, the first one
    // short of a page; then A programs one page into a new frame.
    program(3, 1, 0, 3, ps);
    program(0, 2, 0, 1, 100);
    program(0, 2, 1, 5, ps);
    program(0, 0, 0, 1, ps);
    EXPECT_EQ(flash.programFailures(), 2u);
    EXPECT_FALSE(flash.isProgrammed(Ppa{3, 1, 2}));

    for (std::uint32_t d = 0; d < flash.config().geometry.totalDies(); ++d) {
        for (std::uint32_t b = 0; b < flash.config().geometry.blocksPerDie;
             ++b) {
            for (std::uint32_t p = 0; p < ppb; ++p) {
                SCOPED_TRACE(testing::Message() << "die " << d << " block "
                                                << b << " page " << p);
                std::vector<std::uint8_t> out(ps, 0);
                flash.readPage(Ppa{d, b, p}, out);
                const auto it = want.find({d, b, p});
                EXPECT_EQ(flash.isProgrammed(Ppa{d, b, p}),
                          it != want.end());
                if (it != want.end())
                    EXPECT_EQ(out, it->second);
                else
                    EXPECT_EQ(out, std::vector<std::uint8_t>(ps, 0xff));
            }
        }
    }
    EXPECT_EQ(flash.eraseCount(0, 0), 1u);
    EXPECT_EQ(flash.eraseCount(2, 0), 0u);
    EXPECT_EQ(flash.writePointer(3, 1), 3u);
    EXPECT_EQ(flash.writePointer(2, 0), 2u);
}

TEST(NandFlash, CountsOperations)
{
    NandFlash flash(NandConfig::tiny());
    auto data = pattern(4096, 5);
    flash.programPage(Ppa{0, 0, 0}, data);
    flash.programPage(Ppa{0, 0, 1}, data);
    std::vector<std::uint8_t> out(4096);
    flash.readPage(Ppa{0, 0, 0}, out);
    flash.eraseBlock(0, 0);
    EXPECT_EQ(flash.pagesProgrammed(), 2u);
    EXPECT_EQ(flash.pagesRead(), 1u);
    EXPECT_EQ(flash.blocksErased(), 1u);
}

TEST(NandFlashTiming, SinglePageReadTakesTrPlusTransfer)
{
    NandFlash flash(NandConfig::slcUltraLowLatency());
    const Ppa ppa{0, 0, 0};
    auto op = flash.timedRead(0, std::span<const Ppa>(&ppa, 1));
    // tR (3 us) plus 4 KB over a 1.2 GB/s channel (~3.4 us).
    EXPECT_EQ(op.mediaEnd, sim::usOf(3));
    EXPECT_GE(op.iv.end, sim::usOf(3));
    EXPECT_LE(op.iv.end, sim::usOf(8));
}

TEST(NandFlashTiming, LargeReadsFanOutAcrossDies)
{
    NandFlash flash(NandConfig::tlcDatacenter());
    const std::uint32_t dies = flash.config().geometry.totalDies();
    // One page per die costs ~tR in parallel; two pages per die ~2 tR.
    auto one_round = flash.timedRead(
        0, stripedPpas(flash.config(), dies, /*runPages=*/1));
    flash.resetTiming();
    auto two_rounds = flash.timedRead(
        0, stripedPpas(flash.config(), 2 * dies, /*runPages=*/1));
    double ratio = static_cast<double>(two_rounds.iv.end) /
                   static_cast<double>(one_round.iv.end);
    EXPECT_NEAR(ratio, 2.0, 0.3);
}

TEST(NandFlashTiming, ProgramSlowerThanRead)
{
    NandFlash flash(NandConfig::tlcDatacenter());
    const Ppa ppa{0, 0, 0};
    auto r = flash.timedRead(0, std::span<const Ppa>(&ppa, 1));
    flash.resetTiming();
    auto w = flash.timedProgram(0, std::span<const Ppa>(&ppa, 1));
    EXPECT_GT(w.iv.end - w.iv.start, r.iv.end - r.iv.start);
}

TEST(NandFlashTiming, SustainedProgramMatchesDrainRate)
{
    // DC-SSD NAND should sustain ~1.5 GB/s of programming when the
    // stream stripes chunk-sized runs across the dies (as the FTL's
    // allocator does).
    NandFlash flash(NandConfig::tlcDatacenter());
    const std::uint64_t bytes = 64 * sim::MiB;
    const std::uint64_t pages = bytes / flash.config().geometry.pageSize;
    auto op = flash.timedProgram(0, stripedPpas(flash.config(), pages));
    double gbps = static_cast<double>(bytes) /
                  static_cast<double>(op.iv.end - op.iv.start);
    EXPECT_NEAR(gbps, 1.5, 0.3);
}

TEST(NandFlashTiming, EraseIsMilliseconds)
{
    NandFlash flash(NandConfig::tiny());
    auto iv = flash.timedErase(0, 0);
    EXPECT_EQ(iv.end - iv.start, sim::msOf(1));
}

TEST(NandFlashTiming, ZeroSizedOpsAreFree)
{
    NandFlash flash(NandConfig::tiny());
    EXPECT_EQ(flash.timedRead(5, {}).iv.end, 5u);
    EXPECT_EQ(flash.timedProgram(5, {}).iv.end, 5u);
}

TEST(NandFlashBadBlocks, FactoryDefectMapIsDeterministic)
{
    auto cfg = NandConfig::tiny();
    cfg.factoryBadBlockRate = 0.05;
    NandFlash a(cfg), b(cfg);
    EXPECT_GT(a.badBlockCount(), 0u);
    EXPECT_EQ(a.badBlockCount(), b.badBlockCount());
    for (std::uint32_t d = 0; d < cfg.geometry.totalDies(); ++d)
        for (std::uint32_t blk = 0; blk < cfg.geometry.blocksPerDie; ++blk)
            ASSERT_EQ(a.isBad(d, blk), b.isBad(d, blk));
}

TEST(NandFlashBadBlocks, ProgramOrEraseOfBadBlockPanics)
{
    NandFlash flash(NandConfig::tiny());
    flash.markBad(0, 3);
    EXPECT_TRUE(flash.isBad(0, 3));
    std::vector<std::uint8_t> data(4096, 1);
    EXPECT_THROW(flash.programPage(Ppa{0, 3, 0}, data), sim::SimPanic);
    EXPECT_THROW(flash.eraseBlock(0, 3), sim::SimPanic);
}

TEST(NandFlashBadBlocks, RateOutOfRangeRejected)
{
    auto cfg = NandConfig::tiny();
    cfg.factoryBadBlockRate = 0.5;
    EXPECT_THROW(NandFlash flash(cfg), sim::SimFatal);
}

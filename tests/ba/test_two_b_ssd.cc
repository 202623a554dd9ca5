/**
 * @file
 * Tests for the assembled 2B-SSD: the dual-view contract, the BA API
 * semantics, MMIO calibration against Fig. 7, and the durability
 * protocol under injected power loss.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ba/two_b_ssd.hh"

using namespace bssd;
using namespace bssd::ba;

namespace
{

constexpr std::uint64_t kPage = 4096;

/** 2B-SSD over a small NAND array for fast tests. */
TwoBSsd
makeTiny()
{
    BaConfig ba;
    ba.bufferBytes = 512 * sim::KiB;
    return TwoBSsd(ssd::SsdConfig::tiny(), ba);
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

} // namespace

// ---------------------------------------------------------------
// Dual-view behaviour
// ---------------------------------------------------------------

TEST(TwoBSsd, PinExposesBlockDataThroughMemoryInterface)
{
    auto ssd = makeTiny();
    auto file = pattern(2 * kPage, 11);
    ssd.blockWrite(0, 64 * kPage, file);

    ssd.baPin(sim::msOf(1), 1, 0, 64 * kPage, 2 * kPage);
    std::vector<std::uint8_t> out(2 * kPage);
    ssd.mmioRead(sim::msOf(2), 0, out);
    EXPECT_EQ(out, file);
}

TEST(TwoBSsd, MmioWritesReachNandAfterFlush)
{
    auto ssd = makeTiny();
    // Pin an unwritten range, write via memory interface, flush, and
    // read back through the BLOCK path.
    ssd.baPin(0, 1, 0, 32 * kPage, kPage);
    auto data = pattern(kPage, 42);
    sim::Tick t = ssd.mmioWrite(sim::msOf(1), 0, data);
    t = ssd.baSync(t, 1);
    t = ssd.baFlush(t, 1).end;
    std::vector<std::uint8_t> out(kPage);
    ssd.blockRead(t, 32 * kPage, out);
    EXPECT_EQ(out, data);
}

TEST(TwoBSsd, ByteGranularUpdatePreservesRestOfPage)
{
    auto ssd = makeTiny();
    auto file = pattern(kPage, 3);
    ssd.blockWrite(0, 16 * kPage, file);
    ssd.baPin(sim::msOf(1), 1, 0, 16 * kPage, kPage);

    std::vector<std::uint8_t> tweak{0xde, 0xad, 0xbe, 0xef};
    sim::Tick t = ssd.mmioWrite(sim::msOf(2), 100, tweak);
    t = ssd.baSync(t, 1);
    t = ssd.baFlush(t, 1).end;

    std::vector<std::uint8_t> out(kPage);
    ssd.blockRead(t, 16 * kPage, out);
    auto want = file;
    std::memcpy(want.data() + 100, tweak.data(), tweak.size());
    EXPECT_EQ(out, want);
}

TEST(TwoBSsd, LbaCheckerGatesBlockWritesToPinnedRange)
{
    auto ssd = makeTiny();
    ssd.baPin(0, 1, 0, 16 * kPage, 2 * kPage);
    auto d = pattern(kPage, 1);
    EXPECT_THROW(ssd.blockWrite(sim::msOf(1), 16 * kPage, d),
                 ssd::WriteGatedError);
    EXPECT_THROW(ssd.blockWrite(sim::msOf(1), 17 * kPage, d),
                 ssd::WriteGatedError);
    // Outside the pinned range block writes proceed.
    EXPECT_NO_THROW(ssd.blockWrite(sim::msOf(1), 18 * kPage, d));
    EXPECT_GE(ssd.lbaChecker().rejections(), 2u);

    // After BA_FLUSH the range is unpinned and writable again.
    sim::Tick t = ssd.baFlush(sim::msOf(2), 1).end;
    EXPECT_NO_THROW(ssd.blockWrite(t, 16 * kPage, d));
}

TEST(TwoBSsd, BlockReadsStillAllowedWhilePinned)
{
    auto ssd = makeTiny();
    auto file = pattern(kPage, 9);
    ssd.blockWrite(0, 8 * kPage, file);
    ssd.baPin(sim::msOf(1), 1, 0, 8 * kPage, kPage);
    std::vector<std::uint8_t> out(kPage);
    EXPECT_NO_THROW(ssd.blockRead(sim::msOf(2), 8 * kPage, out));
    EXPECT_EQ(out, file);
}

// ---------------------------------------------------------------
// API semantics
// ---------------------------------------------------------------

TEST(TwoBSsd, GetEntryInfoMatchesPin)
{
    auto ssd = makeTiny();
    ssd.baPin(0, 5, 2 * kPage, 40 * kPage, 3 * kPage);
    auto e = ssd.baGetEntryInfo(5);
    EXPECT_EQ(e.eid, 5u);
    EXPECT_EQ(e.startOffset, 2u * kPage);
    EXPECT_EQ(e.startLba, 40u * kPage);
    EXPECT_EQ(e.length, 3u * kPage);
    EXPECT_THROW(ssd.baGetEntryInfo(6), BaError);
}

TEST(TwoBSsd, FlushDropsEntry)
{
    auto ssd = makeTiny();
    ssd.baPin(0, 1, 0, 8 * kPage, kPage);
    ssd.baFlush(sim::msOf(1), 1);
    EXPECT_THROW(ssd.baGetEntryInfo(1), BaError);
    EXPECT_THROW(ssd.baFlush(sim::msOf(2), 1), BaError);
}

TEST(TwoBSsd, PinBeyondCapacityRejected)
{
    auto ssd = makeTiny();
    EXPECT_THROW(
        ssd.baPin(0, 1, 0, ssd.device().capacityBytes(), kPage), BaError);
}

TEST(TwoBSsd, ReadDmaReturnsPinnedData)
{
    auto ssd = makeTiny();
    auto file = pattern(2 * kPage, 77);
    ssd.blockWrite(0, 20 * kPage, file);
    ssd.baPin(sim::msOf(1), 1, 0, 20 * kPage, 2 * kPage);
    std::vector<std::uint8_t> out(2 * kPage);
    auto iv = ssd.baReadDma(sim::msOf(2), 1, out);
    EXPECT_EQ(out, file);
    EXPECT_GT(iv.end, iv.start);
    std::vector<std::uint8_t> empty;
    EXPECT_THROW(ssd.baReadDma(sim::msOf(3), 1, empty), BaError);
    std::vector<std::uint8_t> too_big(3 * kPage);
    EXPECT_THROW(ssd.baReadDma(sim::msOf(3), 1, too_big), BaError);
}

TEST(TwoBSsd, ReadDmaSeesRecentMmioWrites)
{
    auto ssd = makeTiny();
    ssd.baPin(0, 1, 0, 8 * kPage, kPage);
    auto d = pattern(256, 5);
    sim::Tick t = ssd.mmioWrite(sim::msOf(1), 0, d);
    t = ssd.baSync(t, 1);
    std::vector<std::uint8_t> out(256);
    ssd.baReadDma(t, 1, out);
    EXPECT_EQ(out, d);
}

TEST(TwoBSsd, MmioOutsideWindowRejected)
{
    auto ssd = makeTiny();
    std::vector<std::uint8_t> d(16);
    EXPECT_THROW(ssd.mmioWrite(0, 512 * sim::KiB - 4, d), BaError);
    std::vector<std::uint8_t> out(16);
    EXPECT_THROW(ssd.mmioRead(0, 512 * sim::KiB - 4, out), BaError);
}

TEST(TwoBSsd, ZeroLengthSyncIsFenceAndVerifyOnly)
{
    // An empty BA_SYNC range flushes no WC line: the store below stays
    // buffered, and the sync costs the mfence and the write-verify
    // read alone.
    for (std::uint64_t off : {0u, 10u}) {
        auto ssd = makeTiny();
        ssd.baPin(0, 1, 0, 8 * kPage, kPage);
        const sim::Tick t = ssd.mmioWrite(sim::msOf(1), 0, pattern(16, 3));
        const sim::Tick done = ssd.baSyncRange(t, 1, off, 0);
        EXPECT_EQ(done, t + host::WcConfig{}.mfenceCost +
                            ssd.device().link().config().verifyReadCost)
            << "offset " << off;
        EXPECT_EQ(ssd.wc().dirtyLines(), 1u) << "offset " << off;
    }
}

// ---------------------------------------------------------------
// Durability protocol under power loss
// ---------------------------------------------------------------

TEST(TwoBSsdPower, UnsyncedWriteIsLostSyncedSurvives)
{
    auto ssd = makeTiny();
    ssd.baPin(0, 1, 0, 8 * kPage, 2 * kPage);

    auto synced = pattern(64, 1);
    auto unsynced = pattern(40, 2);

    sim::Tick t = ssd.mmioWrite(sim::msOf(1), 0, synced);
    t = ssd.baSync(t, 1);
    // Second write: small (sits in a WC line), never synced.
    t = ssd.mmioWrite(t, kPage, unsynced);

    auto rep = ssd.powerLoss(t);
    EXPECT_GT(rep.wcBytesLost, 0u);
    EXPECT_TRUE(rep.dump.success);
    ASSERT_TRUE(ssd.powerRestore());

    std::vector<std::uint8_t> out(64);
    ssd.mmioRead(sim::sOf(1), 0, out);
    EXPECT_EQ(out, synced);

    std::vector<std::uint8_t> lost(40);
    ssd.mmioRead(sim::sOf(1), kPage, lost);
    EXPECT_NE(lost, unsynced);
}

TEST(TwoBSsdPower, PostedButUnverifiedWriteCanBeLost)
{
    auto ssd = makeTiny();
    ssd.baPin(0, 1, 0, 8 * kPage, kPage);
    // A full 64 B line posts immediately (no WC residue), but the
    // posted write has not arrived if power fails right away.
    std::vector<std::uint8_t> d(64, 0x77);
    sim::Tick t = ssd.mmioWrite(sim::msOf(1), 0, d);
    auto rep = ssd.powerLoss(t); // before postedDrainTime
    EXPECT_EQ(rep.wcBytesLost, 0u);
    EXPECT_EQ(rep.postedBytesLost, 64u);
}

TEST(TwoBSsdPower, MappingTableSurvivesPowerCycle)
{
    auto ssd = makeTiny();
    ssd.baPin(0, 4, kPage, 24 * kPage, 2 * kPage);
    ssd.powerLoss(sim::msOf(5));
    ASSERT_TRUE(ssd.powerRestore());
    auto e = ssd.baGetEntryInfo(4);
    EXPECT_EQ(e.startLba, 24u * kPage);
    // The restored pin still gates block writes.
    auto d = pattern(kPage, 1);
    EXPECT_THROW(ssd.blockWrite(sim::sOf(1), 24 * kPage, d),
                 ssd::WriteGatedError);
}

TEST(TwoBSsdPower, DumpWithinCapacitorBudget)
{
    auto ssd = makeTiny();
    auto rep = ssd.powerLoss(sim::msOf(1));
    EXPECT_TRUE(rep.dump.success);
    EXPECT_LE(rep.dump.joulesUsed, rep.dump.joulesBudget);
}

TEST(TwoBSsdPower, OversizedBufferExceedsCapacitorBudget)
{
    // A hypothetical 2B-SSD with a 256 MiB BA-buffer cannot finish the
    // dump on three 270 uF capacitors - the sizing in Table I matters.
    BaConfig ba;
    ba.bufferBytes = 256 * sim::MiB;
    TwoBSsd ssd(ssd::SsdConfig::tiny(), ba);
    auto rep = ssd.powerLoss(sim::msOf(1));
    EXPECT_FALSE(rep.dump.success);
    EXPECT_FALSE(ssd.powerRestore());
}

TEST(TwoBSsdPower, CleanBootHasNothingToRestore)
{
    auto ssd = makeTiny();
    EXPECT_FALSE(ssd.powerRestore());
}

// ---------------------------------------------------------------
// Calibration against Fig. 7 (full-size device)
// ---------------------------------------------------------------

class MmioCalibration : public ::testing::Test
{
  protected:
    TwoBSsd ssd_;

    void
    SetUp() override
    {
        ssd_.baPin(0, 1, 0, 0, 16 * kPage);
    }

    /** Plain MMIO write latency: stores + natural WC drain. */
    double
    mmioWriteUs(std::uint64_t bytes, sim::Tick at)
    {
        std::vector<std::uint8_t> d(bytes, 0x31);
        sim::Tick t = ssd_.mmioWrite(at, 0, d);
        t = ssd_.wc().drainAll(t);
        return sim::toUs(t - at);
    }

    /** Persistent MMIO write latency: stores + BA_SYNC. */
    double
    persistentWriteUs(std::uint64_t bytes, sim::Tick at)
    {
        std::vector<std::uint8_t> d(bytes, 0x32);
        sim::Tick t = ssd_.mmioWrite(at, 0, d);
        t = ssd_.baSyncRange(t, 1, 0, bytes);
        return sim::toUs(t - at);
    }
};

TEST_F(MmioCalibration, EightByteWriteNear630ns)
{
    EXPECT_NEAR(mmioWriteUs(8, sim::msOf(1)), 0.63, 0.07);
}

TEST_F(MmioCalibration, FourKbWriteNear2us)
{
    EXPECT_NEAR(mmioWriteUs(4096, sim::msOf(10)), 2.0, 0.25);
}

TEST_F(MmioCalibration, SyncOverheadSmallWriteNear15Percent)
{
    double plain = mmioWriteUs(8, sim::msOf(20));
    double pers = persistentWriteUs(8, sim::msOf(30));
    EXPECT_NEAR(pers / plain, 1.15, 0.06);
}

TEST_F(MmioCalibration, SyncOverhead4KbNear47Percent)
{
    double plain = mmioWriteUs(4096, sim::msOf(40));
    double pers = persistentWriteUs(4096, sim::msOf(50));
    EXPECT_NEAR(pers / plain, 1.47, 0.07);
}

TEST_F(MmioCalibration, FourKbMmioReadNear150us)
{
    std::vector<std::uint8_t> out(4096);
    sim::Tick start = sim::msOf(60);
    sim::Tick t = ssd_.mmioRead(start, 0, out);
    EXPECT_NEAR(sim::toUs(t - start), 150.0, 8.0);
}

TEST_F(MmioCalibration, ReadDma4KbNear58us)
{
    std::vector<std::uint8_t> out(4096);
    auto iv = ssd_.baReadDma(sim::msOf(70), 1, out);
    EXPECT_NEAR(sim::toUs(iv.end - iv.start), 58.0, 4.0);
}

TEST_F(MmioCalibration, ReadDmaBeatsMmioAbove2Kb)
{
    std::vector<std::uint8_t> out2k(2048), out1k(1024);
    sim::Tick m2 = ssd_.mmioRead(sim::msOf(80), 0, out2k) - sim::msOf(80);
    auto d2 = ssd_.baReadDma(sim::msOf(90), 1, out2k);
    EXPECT_LT(d2.end - d2.start, m2);
    // ...but not below ~1 KB.
    sim::Tick m1 = ssd_.mmioRead(sim::msOf(100), 0, out1k) - sim::msOf(100);
    auto d1 = ssd_.baReadDma(sim::msOf(110), 1, out1k);
    EXPECT_GT(d1.end - d1.start, m1);
}

TEST_F(MmioCalibration, PersistentWriteStillBeatsBlockWrite)
{
    // Fig 7(b): persistent MMIO at 4 KB is ~6 us faster than ULL block.
    double pers = persistentWriteUs(4096, sim::msOf(120));
    std::vector<std::uint8_t> d(4096, 1);
    auto iv = ssd_.blockWrite(sim::msOf(130), 64 * kPage, d);
    double block = sim::toUs(iv.end - iv.start);
    EXPECT_GT(block, pers);
    EXPECT_NEAR(block - pers, 6.0, 2.5);
}

// Internal datapath bandwidth (Fig. 8 targets).

TEST(TwoBSsdInternal, PinBandwidthNear2GBs)
{
    TwoBSsd ssd;
    // Seed 8 MiB of data through the block path.
    std::vector<std::uint8_t> d(8 * sim::MiB, 0x44);
    ssd.blockWrite(0, 0, d);
    auto iv = ssd.baPin(sim::sOf(1), 1, 0, 0, 8 * sim::MiB);
    double gbps = static_cast<double>(8 * sim::MiB) /
                  static_cast<double>(iv.end - iv.start);
    EXPECT_NEAR(gbps, 2.2, 0.3);
}

TEST(TwoBSsdInternal, FlushBandwidthNear2GBs)
{
    TwoBSsd ssd;
    ssd.baPin(0, 1, 0, 0, 8 * sim::MiB);
    auto iv = ssd.baFlush(sim::sOf(1), 1);
    double gbps = static_cast<double>(8 * sim::MiB) /
                  static_cast<double>(iv.end - iv.start);
    EXPECT_NEAR(gbps, 2.2, 0.35);
}

TEST(TwoBSsdInternal, BlockPathMatchesUllSsd)
{
    // Section V-A: 2B-SSD's block I/O is identical to the ULL-SSD it
    // piggybacks on.
    TwoBSsd two;
    ssd::SsdDevice ull(ssd::SsdConfig::ullSsd());
    std::vector<std::uint8_t> d(4096, 1);
    two.blockWrite(0, 128 * sim::MiB, d);
    ull.blockWrite(0, 128 * sim::MiB, d);
    std::vector<std::uint8_t> out(4096);
    auto a = two.blockRead(sim::sOf(1), 128 * sim::MiB, out);
    auto b = ull.blockRead(sim::sOf(1), 128 * sim::MiB, out);
    EXPECT_EQ(a.end - a.start, b.end - b.start);
}

TEST(TwoBSsd, EightEntriesServeIndependentFiles)
{
    // The full Table-I mapping table in use: eight files pinned at
    // once, each updated through its own window, flushed in arbitrary
    // order, all verified through the block path.
    ba::BaConfig bc;
    bc.bufferBytes = 8 * kPage; // eight one-page windows
    TwoBSsd ssd(ssd::SsdConfig::tiny(), bc);

    for (Eid e = 0; e < 8; ++e) {
        ssd.baPin(0, e, std::uint64_t(e) * kPage,
                  (100 + 2 * std::uint64_t(e)) * kPage, kPage);
    }
    EXPECT_EQ(ssd.buffer().entryCount(), 8u);
    // Ninth pin must be rejected (table full).
    EXPECT_THROW(ssd.baPin(0, 8, 0, 200 * kPage, kPage), BaError);

    // Write a distinct tag into each window and sync it.
    sim::Tick t = sim::msOf(1);
    for (Eid e = 0; e < 8; ++e) {
        std::vector<std::uint8_t> tag(16, static_cast<std::uint8_t>(
                                              0xd0 + e));
        t = ssd.mmioWrite(t, std::uint64_t(e) * kPage + 64, tag);
        t = ssd.baSyncRange(t, e, std::uint64_t(e) * kPage + 64, 16);
    }
    // Flush in shuffled order.
    for (Eid e : {5u, 0u, 7u, 2u, 6u, 1u, 4u, 3u})
        t = ssd.baFlush(t, e).end;
    EXPECT_EQ(ssd.buffer().entryCount(), 0u);

    for (Eid e = 0; e < 8; ++e) {
        std::vector<std::uint8_t> out(16);
        ssd.blockRead(t, (100 + 2 * std::uint64_t(e)) * kPage + 64,
                      out);
        for (auto b : out)
            ASSERT_EQ(b, 0xd0 + e) << "entry " << e;
    }
}

TEST(TwoBSsd, PowerCycleWithManyPinnedEntries)
{
    ba::BaConfig bc;
    bc.bufferBytes = 8 * kPage;
    TwoBSsd ssd(ssd::SsdConfig::tiny(), bc);
    for (Eid e = 0; e < 6; ++e) {
        ssd.baPin(0, e, std::uint64_t(e) * kPage,
                  (50 + std::uint64_t(e)) * kPage, kPage);
    }
    sim::Tick t = sim::msOf(1);
    for (Eid e = 0; e < 6; ++e) {
        std::vector<std::uint8_t> tag(8, static_cast<std::uint8_t>(e));
        t = ssd.mmioWrite(t, std::uint64_t(e) * kPage, tag);
        t = ssd.baSyncRange(t, e, std::uint64_t(e) * kPage, 8);
    }
    ssd.powerLoss(t);
    ASSERT_TRUE(ssd.powerRestore());
    EXPECT_EQ(ssd.buffer().entryCount(), 6u);
    for (Eid e = 0; e < 6; ++e) {
        std::vector<std::uint8_t> out(8);
        ssd.mmioRead(sim::sOf(1), std::uint64_t(e) * kPage, out);
        for (auto b : out)
            ASSERT_EQ(b, e) << "entry " << e;
    }
}

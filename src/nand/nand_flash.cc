#include "nand/nand_flash.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/rng.hh"

#include "sim/logging.hh"

namespace bssd::nand
{

NandConfig
NandConfig::tlcDatacenter()
{
    NandConfig c;
    c.geometry = NandGeometry{8, 4, 4096, 256, 4096};
    c.timing.readPage = sim::usOf(70);
    c.timing.programChunk = sim::usOf(700);
    c.timing.programChunkBytes = 32 * sim::KiB;
    c.timing.eraseBlock = sim::msOf(3.5);
    c.timing.channelBw = sim::mbPerSec(800);
    return c;
}

NandConfig
NandConfig::slcUltraLowLatency()
{
    NandConfig c;
    c.geometry = NandGeometry{8, 4, 4096, 256, 4096};
    c.timing.readPage = sim::usOf(3);
    c.timing.programChunk = sim::usOf(100);
    c.timing.programChunkBytes = 16 * sim::KiB;
    c.timing.eraseBlock = sim::msOf(1);
    c.timing.channelBw = sim::gbPerSec(1.2);
    return c;
}

NandConfig
NandConfig::tiny()
{
    NandConfig c;
    c.geometry = NandGeometry{2, 2, 8, 8, 4096};
    c.timing.readPage = sim::usOf(3);
    c.timing.programChunk = sim::usOf(100);
    c.timing.programChunkBytes = 4 * sim::KiB;
    c.timing.eraseBlock = sim::msOf(1);
    c.timing.channelBw = sim::gbPerSec(1.2);
    return c;
}

NandFlash::NandFlash(const NandConfig &cfg)
    : cfg_(cfg), dies_(cfg.geometry.totalDies(), cfg.sched, "nand.dies")
{
    channels_.reserve(cfg_.geometry.channels);
    for (std::uint32_t c = 0; c < cfg_.geometry.channels; ++c)
        channels_.emplace_back("nand.chan" + std::to_string(c));
    if (cfg_.geometry.pageSize == 0 || cfg_.geometry.pagesPerBlock == 0 ||
        cfg_.geometry.blocksPerDie == 0 || cfg_.geometry.totalDies() == 0) {
        sim::fatal("NAND geometry has a zero dimension");
    }
    if (cfg_.factoryBadBlockRate < 0.0 || cfg_.factoryBadBlockRate > 0.2)
        sim::fatal("factory bad-block rate out of range");
    const auto &g = cfg_.geometry;
    const std::uint64_t blocks = std::uint64_t(g.totalDies()) * g.blocksPerDie;
    if (blocks > ~std::uint32_t(0))
        sim::fatal("NAND array has more than 2^32 blocks");
    blockChunks_.resize(((blocks - 1) >> blockChunkShift) + 1);
    badBits_.assign((blocks + 63) / 64, 0);
    chunkBytes_ = std::size_t(framesPerChunk) * g.pageSize;
    // Deterministic factory defect map.
    if (cfg_.factoryBadBlockRate > 0.0) {
        sim::Rng rng(cfg_.badBlockSeed);
        for (std::uint32_t d = 0; d < cfg_.geometry.totalDies(); ++d)
            for (std::uint32_t b = 0; b < cfg_.geometry.blocksPerDie; ++b)
                if (rng.chance(cfg_.factoryBadBlockRate))
                    markBad(d, b);
    }
}

const NandFlash::BlockState *
NandFlash::findBlock(std::uint32_t idx) const
{
    const auto &chunk = blockChunks_[idx >> blockChunkShift];
    return chunk ? &chunk[idx & ((1u << blockChunkShift) - 1)] : nullptr;
}

NandFlash::BlockState &
NandFlash::blockAt(std::uint32_t idx)
{
    auto &chunk = blockChunks_[idx >> blockChunkShift];
    if (!chunk)
        chunk = std::make_unique<BlockState[]>(1u << blockChunkShift);
    return chunk[idx & ((1u << blockChunkShift) - 1)];
}

std::uint32_t
NandFlash::takeFrame()
{
    if (!freeFrames_.empty()) {
        const std::uint32_t frame = freeFrames_.back();
        freeFrames_.pop_back();
        return frame;
    }
    if (nextFrame_ == frameChunks_.size() * framesPerChunk)
        frameChunks_.push_back(
            std::make_unique_for_overwrite<std::uint8_t[]>(chunkBytes_));
    return nextFrame_++;
}

std::uint8_t *
NandFlash::frameAt(std::uint32_t frame) const
{
    return frameChunks_[frame / framesPerChunk].get() +
           std::size_t(frame % framesPerChunk) * cfg_.geometry.pageSize;
}

std::uint32_t
NandFlash::frameOf(const BlockState *st, std::uint32_t page)
{
    return st && st->frames ? st->frames[page] : 0;
}

bool
NandFlash::isBad(std::uint32_t die, std::uint32_t block) const
{
    checkPpa(Ppa{die, block, 0});
    const std::uint32_t idx = blockIndex(die, block);
    return (badBits_[idx / 64] >> (idx % 64) & 1) != 0;
}

void
NandFlash::markBad(std::uint32_t die, std::uint32_t block)
{
    checkPpa(Ppa{die, block, 0});
    const std::uint32_t idx = blockIndex(die, block);
    const std::uint64_t bit = std::uint64_t(1) << (idx % 64);
    if ((badBits_[idx / 64] & bit) == 0)
        ++badCount_;
    badBits_[idx / 64] |= bit;
}

std::uint32_t
NandFlash::badBlockCount() const
{
    return badCount_;
}

void
NandFlash::checkPpa(Ppa ppa) const
{
    const auto &g = cfg_.geometry;
    if (ppa.die >= g.totalDies() || ppa.block >= g.blocksPerDie ||
        ppa.page >= g.pagesPerBlock) {
        sim::panic("PPA out of range: die ", ppa.die, " block ", ppa.block,
                   " page ", ppa.page);
    }
}

void
NandFlash::readPage(Ppa ppa, std::span<std::uint8_t> out) const
{
    checkPpa(ppa);
    const std::uint32_t ps = cfg_.geometry.pageSize;
    if (out.size() < ps)
        sim::panic("readPage output buffer smaller than a page");
    pagesRead_.add();
    const std::uint32_t frame =
        frameOf(findBlock(blockIndex(ppa.die, ppa.block)), ppa.page);
    if (frame == 0) {
        std::fill_n(out.begin(), ps, 0xff);
        return;
    }
    std::copy_n(frameAt(frame - 1), ps, out.begin());
}

bool
NandFlash::programPage(Ppa ppa, std::span<const std::uint8_t> data)
{
    checkPpa(ppa);
    const std::uint32_t ps = cfg_.geometry.pageSize;
    if (data.size() > ps)
        sim::panic("programPage data larger than a page");
    if (isBad(ppa.die, ppa.block))
        sim::panic("program to bad block ", ppa.block, " on die ",
                   ppa.die);
    BlockState &blk = blockAt(blockIndex(ppa.die, ppa.block));
    if (ppa.page != blk.writePtr) {
        sim::panic("out-of-order NAND program: die ", ppa.die, " block ",
                   ppa.block, " page ", ppa.page, " expected ",
                   blk.writePtr);
    }
    // Consult the fault schedule before announcing the hit: the fail
    // schedule is keyed by the hit index of *this* program.
    const bool fail = faults_ && faults_->failNandProgram();
    if (faults_)
        faults_->hit(sim::Tp::nandProgram);
    pagesProgrammed_.add();
    // A failed program still consumes the page (its cells are
    // disturbed); the FTL must not retry the same page.
    blk.writePtr = ppa.page + 1;
    if (fail) {
        programFails_.add();
        return false;
    }
    if (!blk.frames)
        blk.frames =
            std::make_unique<std::uint32_t[]>(cfg_.geometry.pagesPerBlock);
    const std::uint32_t frame = takeFrame();
    blk.frames[ppa.page] = frame + 1;
    std::uint8_t *bytes = frameAt(frame);
    std::copy(data.begin(), data.end(), bytes);
    std::fill(bytes + data.size(), bytes + ps, 0xff);
    return true;
}

bool
NandFlash::eraseBlock(std::uint32_t die, std::uint32_t block)
{
    if (isBad(die, block))
        sim::panic("erase of bad block ", block, " on die ", die);
    const bool fail = faults_ && faults_->failNandErase();
    if (faults_)
        faults_->hit(sim::Tp::nandErase);
    if (fail) {
        eraseFails_.add();
        return false;
    }
    blocksErased_.add();
    BlockState &blk = blockAt(blockIndex(die, block));
    if (blk.frames) {
        // The block's frames go back to the pool; its page table stays
        // for the next program, every page unprogrammed.
        for (std::uint32_t p = 0; p < blk.writePtr; ++p) {
            if (blk.frames[p] != 0)
                freeFrames_.push_back(blk.frames[p] - 1);
            blk.frames[p] = 0;
        }
    }
    blk.writePtr = 0;
    ++blk.eraseCount;
    return true;
}

bool
NandFlash::isProgrammed(Ppa ppa) const
{
    checkPpa(ppa);
    return frameOf(findBlock(blockIndex(ppa.die, ppa.block)), ppa.page) != 0;
}

std::uint32_t
NandFlash::writePointer(std::uint32_t die, std::uint32_t block) const
{
    checkPpa(Ppa{die, block, 0});
    const BlockState *st = findBlock(blockIndex(die, block));
    return st ? st->writePtr : 0;
}

std::uint64_t
NandFlash::eraseCount(std::uint32_t die, std::uint32_t block) const
{
    checkPpa(Ppa{die, block, 0});
    const BlockState *st = findBlock(blockIndex(die, block));
    return st ? st->eraseCount : 0;
}

sim::Tick
NandFlash::pageTransferTime() const
{
    return cfg_.timing.channelBw.transferTime(cfg_.geometry.pageSize);
}

TimedOp
NandFlash::doTimedRead(sim::Tick ready, std::span<const Ppa> ppas,
                       bool background)
{
    BSSD_OWN_GUARD(this);
    if (ppas.empty())
        return {{ready, ready}, ready};
    sim::Tick first = sim::maxTick;
    sim::Tick mediaEnd = 0;
    sim::Tick last = 0;
    const sim::Tick xfer = pageTransferTime();
    for (const Ppa &ppa : ppas) {
        checkPpa(ppa);
        auto g = dies_.reserveOn(ppa.die, ready, cfg_.timing.readPage,
                                 DieScheduler::Op::read, background);
        if (g.suspendedErase) {
            sim::tracepointHit(faults_, tracer_, sim::Tp::nandEraseSuspend,
                               g.iv.start);
        }
        auto ch_iv = channels_[channelOf(ppa.die)].reserve(g.iv.end, xfer);
        first = std::min(first, g.iv.start);
        mediaEnd = std::max(mediaEnd, g.iv.end);
        last = std::max(last, ch_iv.end);
    }
    return {{first, last}, mediaEnd};
}

TimedOp
NandFlash::doTimedProgram(sim::Tick ready, std::span<const Ppa> ppas,
                          bool background)
{
    BSSD_OWN_GUARD(this);
    if (ppas.empty())
        return {{ready, ready}, ready};
    const std::uint64_t chunkPages = std::max<std::uint64_t>(
        1, cfg_.timing.programChunkBytes / cfg_.geometry.pageSize);
    sim::Tick first = sim::maxTick;
    sim::Tick last = 0;
    // Consecutive same-die pages share one multi-plane chunk; the
    // chunk transfers over its die's channel, then the die holds tPROG.
    // Chunks of one program landing on the same channel or die
    // serialize on those FIFO calendars.
    std::size_t i = 0;
    while (i < ppas.size()) {
        const std::uint32_t die = ppas[i].die;
        checkPpa(ppas[i]);
        std::uint64_t n = 1;
        while (i + n < ppas.size() && ppas[i + n].die == die &&
               n < chunkPages) {
            checkPpa(ppas[i + n]);
            ++n;
        }
        const std::uint64_t bytes = n * cfg_.geometry.pageSize;
        auto ch_iv = channels_[channelOf(die)].reserve(
            ready, cfg_.timing.channelBw.transferTime(bytes));
        auto g = dies_.reserveOn(die, ch_iv.end, cfg_.timing.programChunk,
                                 DieScheduler::Op::program, background);
        first = std::min(first, ch_iv.start);
        last = std::max(last, g.iv.end);
        i += n;
    }
    return {{first, last}, last};
}

sim::Interval
NandFlash::doTimedErase(sim::Tick ready, std::uint32_t die,
                        bool background)
{
    BSSD_OWN_GUARD(this);
    checkPpa(Ppa{die, 0, 0});
    return dies_
        .reserveOn(die, ready, cfg_.timing.eraseBlock,
                   DieScheduler::Op::erase, background)
        .iv;
}

TimedOp
NandFlash::timedRead(sim::Tick ready, std::span<const Ppa> ppas)
{
    return doTimedRead(ready, ppas, false);
}

TimedOp
NandFlash::timedProgram(sim::Tick ready, std::span<const Ppa> ppas)
{
    return doTimedProgram(ready, ppas, false);
}

sim::Interval
NandFlash::timedErase(sim::Tick ready, std::uint32_t die)
{
    return doTimedErase(ready, die, false);
}

TimedOp
NandFlash::timedGcRead(sim::Tick ready, std::span<const Ppa> ppas)
{
    return doTimedRead(ready, ppas, true);
}

TimedOp
NandFlash::timedGcProgram(sim::Tick ready, std::span<const Ppa> ppas)
{
    return doTimedProgram(ready, ppas, true);
}

sim::Interval
NandFlash::timedGcErase(sim::Tick ready, std::uint32_t die)
{
    return doTimedErase(ready, die, true);
}

void
NandFlash::resetTiming()
{
    dies_.reset();
    for (auto &ch : channels_)
        ch.reset();
}

} // namespace bssd::nand

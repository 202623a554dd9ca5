#include "ftl/ftl.hh"

#include <algorithm>
#include <utility>

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace bssd::ftl
{

namespace
{

/** What an unmapped L2P entry holds. */
constexpr nand::Ppa noPpa{~0u, ~0u, ~0u};

} // namespace

Ftl::Ftl(nand::NandFlash &flash, const FtlConfig &cfg)
    : flash_(flash), cfg_(cfg),
      pageSize_(flash.config().geometry.pageSize)
{
    const auto &g = flash_.config().geometry;
    const std::uint64_t total_blocks =
        std::uint64_t(g.totalDies()) * g.blocksPerDie;

    // Reject or repair configurations that would livelock or corrupt
    // capacity accounting before any I/O runs (they used to surface as
    // mid-run panics, or as silent UB for a negative over-provision).
    if (!(cfg_.overProvision >= 0.0 && cfg_.overProvision <= 0.9)) {
        sim::fatal("FTL over-provision fraction must be in [0, 0.9], got ",
                   cfg_.overProvision);
    }
    if (cfg_.gcLowWaterBlocks == 0) {
        sim::warn("FTL GC low watermark 0 would let the free pool empty "
                  "before GC engages; clamping to 1");
        cfg_.gcLowWaterBlocks = 1;
    }
    if (cfg_.backgroundGc && cfg_.gcStepPages == 0) {
        sim::warn("FTL background GC with gcStepPages 0 would never "
                  "relocate; clamping to 1");
        cfg_.gcStepPages = 1;
    }
    if (cfg_.gcHighWaterBlocks <= cfg_.gcLowWaterBlocks)
        sim::fatal("FTL GC high watermark must exceed the low watermark");
    if (total_blocks <= cfg_.gcHighWaterBlocks + g.totalDies())
        sim::fatal("NAND array too small for the configured GC pool");

    blocks_.reserve(total_blocks);
    for (std::uint32_t d = 0; d < g.totalDies(); ++d) {
        for (std::uint32_t b = 0; b < g.blocksPerDie; ++b) {
            BlockInfo info;
            info.die = d;
            info.block = b;
            blocks_.push_back(std::move(info));
        }
    }
    // Free list kept die-interleaved so the frontier stripes
    // naturally; factory-bad blocks never enter the pool.
    std::uint32_t bad = 0;
    for (std::uint32_t b = 0; b < g.blocksPerDie; ++b) {
        for (std::uint32_t d = 0; d < g.totalDies(); ++d) {
            if (flash_.isBad(d, b)) {
                blocks_[blockIndex(d, b)].free = false;
                ++bad;
                continue;
            }
            freeList_.push_back(blockIndex(d, b));
        }
    }
    std::reverse(freeList_.begin(), freeList_.end()); // pop_back order

    frontier_.assign(g.totalDies(), -1);
    planePages_ = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               flash_.config().timing.programChunkBytes / g.pageSize));

    auto op_pages = static_cast<std::uint64_t>(
        static_cast<double>(g.totalPages()) * cfg_.overProvision);
    std::uint64_t reserve_pages =
        op_pages +
        std::uint64_t(cfg_.gcHighWaterBlocks + g.totalDies() + bad) *
            g.pagesPerBlock;
    if (reserve_pages >= g.totalPages())
        sim::fatal("FTL over-provisioning leaves no logical capacity");
    logicalPages_ = g.totalPages() - reserve_pages;
    l2p_.resize(((logicalPages_ - 1) >> (l2pLeafShift + l2pDirShift)) + 1);
}

std::uint32_t
Ftl::blockIndex(std::uint32_t die, std::uint32_t block) const
{
    return die * flash_.config().geometry.blocksPerDie + block;
}

Ftl::BlockInfo &
Ftl::blockOf(nand::Ppa ppa)
{
    return blocks_[blockIndex(ppa.die, ppa.block)];
}

const nand::Ppa *
Ftl::mapped(Lpn lpn) const
{
    const Lpn leaf = lpn >> l2pLeafShift;
    const Lpn dir = leaf >> l2pDirShift;
    if (dir >= l2p_.size() || !l2p_[dir])
        return nullptr;
    const L2pLeaf &entries = l2p_[dir][leaf & ((1u << l2pDirShift) - 1)];
    if (!entries)
        return nullptr;
    const nand::Ppa &ppa = entries[lpn & ((1u << l2pLeafShift) - 1)];
    return ppa == noPpa ? nullptr : &ppa;
}

nand::Ppa *
Ftl::mapped(Lpn lpn)
{
    return const_cast<nand::Ppa *>(std::as_const(*this).mapped(lpn));
}

void
Ftl::map(Lpn lpn, nand::Ppa ppa)
{
    const Lpn leaf = lpn >> l2pLeafShift;
    auto &dir = l2p_[leaf >> l2pDirShift];
    if (!dir)
        dir = std::make_unique<L2pLeaf[]>(std::size_t(1) << l2pDirShift);
    L2pLeaf &entries = dir[leaf & ((1u << l2pDirShift) - 1)];
    if (!entries) {
        entries = std::make_unique<nand::Ppa[]>(std::size_t(1)
                                                << l2pLeafShift);
        std::fill_n(entries.get(), std::size_t(1) << l2pLeafShift, noPpa);
    }
    entries[lpn & ((1u << l2pLeafShift) - 1)] = ppa;
}

nand::Ppa
Ftl::relocate(Lpn lpn, nand::Ppa src, sim::Tick at)
{
    if (relocDepth_ == relocBufs_.size())
        relocBufs_.emplace_back(pageSize_);
    std::vector<std::uint8_t> &buf = relocBufs_[relocDepth_++];
    flash_.readPage(src, buf);
    // A nested relocation may grow relocBufs_; the page span handed
    // down here stays valid, as moving a vector keeps its storage.
    const nand::Ppa dst = writeOnePage(lpn, buf, at);
    --relocDepth_;
    ++gcPages_;
    return dst;
}

std::uint32_t
Ftl::freeBlocks() const
{
    return static_cast<std::uint32_t>(freeList_.size());
}

nand::Ppa
Ftl::allocatePage()
{
    const auto &g = flash_.config().geometry;
    // Visit each die at most twice (once to close a full frontier and
    // once to open a fresh block); more means we are truly out of space.
    for (std::uint32_t attempt = 0; attempt < 2 * g.totalDies();
         ++attempt) {
        std::uint32_t die = nextDie_;

        std::int32_t fi = frontier_[die];
        if (fi < 0) {
            // Open a new block on this die from the free list.
            auto it = std::find_if(
                freeList_.rbegin(), freeList_.rend(),
                [&](std::uint32_t idx) { return blocks_[idx].die == die; });
            if (it == freeList_.rend()) {
                // No free block on this die; try the next one.
                nextDie_ = (nextDie_ + 1) % g.totalDies();
                runFill_ = 0;
                continue;
            }
            std::uint32_t idx = *it;
            freeList_.erase(std::next(it).base());
            auto &nblk = blocks_[idx];
            nblk.free = false;
            nblk.open = true;
            nblk.validPages = 0;
            nblk.pageLpn.assign(g.pagesPerBlock, ~Lpn(0));
            frontier_[die] = static_cast<std::int32_t>(idx);
            fi = frontier_[die];
        }
        auto &blk = blocks_[static_cast<std::uint32_t>(fi)];
        std::uint32_t page = flash_.writePointer(blk.die, blk.block);
        if (page >= g.pagesPerBlock) {
            // Frontier full; close it and retry this die with a fresh
            // block on the next iteration.
            blk.open = false;
            frontier_[die] = -1;
            continue;
        }
        // Fill a planePages_-long run on this die before moving to the
        // next, so consecutive allocations group into one multi-plane
        // program chunk; dies are channel-interleaved, so runs of a
        // large request still fan out across channels.
        if (++runFill_ >= planePages_) {
            nextDie_ = (nextDie_ + 1) % g.totalDies();
            runFill_ = 0;
        }
        return nand::Ppa{blk.die, blk.block, page};
    }
    sim::panic("FTL out of physical space; GC failed to reclaim");
}

void
Ftl::invalidate(Lpn lpn)
{
    nand::Ppa *ppa = mapped(lpn);
    if (!ppa)
        return;
    auto &blk = blockOf(*ppa);
    if (blk.validPages == 0)
        sim::panic("invalidate underflow on block ", ppa->block);
    --blk.validPages;
    blk.pageLpn[ppa->page] = ~Lpn(0);
    *ppa = noPpa;
}

nand::Ppa
Ftl::writeOnePage(Lpn lpn, std::span<const std::uint8_t> page,
                  sim::Tick at)
{
    // A program failure retires the frontier block and rewrites the
    // page elsewhere; bound the attempts so a hostile fault plan
    // cannot spin forever.
    for (int attempt = 0; attempt < 8; ++attempt) {
        nand::Ppa ppa = allocatePage();
        sim::tracepointHit(faults_, tracer_, sim::Tp::ftlProgram, at);
        if (!flash_.programPage(ppa, page)) {
            retireBlock(ppa.die, ppa.block, at);
            continue;
        }
        ++nandPages_;
        auto &blk = blockOf(ppa);
        invalidate(lpn);
        blk.pageLpn[ppa.page] = lpn;
        ++blk.validPages;
        map(lpn, ppa);
        return ppa;
    }
    sim::panic("FTL page program kept failing after retiring 8 blocks");
}

void
Ftl::retireBlock(std::uint32_t die, std::uint32_t block, sim::Tick at)
{
    const std::uint32_t idx = blockIndex(die, block);
    auto &blk = blocks_[idx];
    if (frontier_[die] == static_cast<std::int32_t>(idx))
        frontier_[die] = -1;
    flash_.markBad(die, block);
    ++grownBad_;

    // Relocate every page still mapped into the dying block before
    // abandoning it. The block is already marked bad, so the recursive
    // writeOnePage cannot allocate from it again.
    const std::uint32_t wp = flash_.writePointer(die, block);
    for (std::uint32_t p = 0; p < wp && p < blk.pageLpn.size(); ++p) {
        Lpn lpn = blk.pageLpn[p];
        if (lpn == ~Lpn(0))
            continue; // stale page
        nand::Ppa src{die, block, p};
        const nand::Ppa *cur = mapped(lpn);
        if (!cur || !(*cur == src))
            continue; // remapped since
        relocate(lpn, src, at);
    }
    blk.free = false;
    blk.open = false;
    blk.validPages = 0;
    blk.pageLpn.clear();
}

std::uint32_t
Ftl::pickVictim() const
{
    // Greedy on valid-page count; ties break towards the LEAST worn
    // block so erase cycles spread evenly (wear levelling).
    std::uint32_t best = ~std::uint32_t(0);
    std::uint32_t best_valid = ~std::uint32_t(0);
    std::uint64_t best_wear = ~std::uint64_t(0);
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
        const auto &b = blocks_[i];
        if (b.free || b.open)
            continue;
        if (flash_.isBad(b.die, b.block))
            continue; // retired block: never a GC victim
        std::uint64_t wear = flash_.eraseCount(b.die, b.block);
        if (b.validPages < best_valid ||
            (b.validPages == best_valid && wear < best_wear)) {
            best_valid = b.validPages;
            best_wear = wear;
            best = i;
        }
    }
    return best;
}

Ftl::WearStats
Ftl::wearStats() const
{
    WearStats w;
    w.minErase = ~std::uint64_t(0);
    std::uint64_t total = 0;
    for (const auto &b : blocks_) {
        std::uint64_t e = flash_.eraseCount(b.die, b.block);
        w.minErase = std::min(w.minErase, e);
        w.maxErase = std::max(w.maxErase, e);
        total += e;
    }
    if (blocks_.empty())
        w.minErase = 0;
    else
        w.avgErase = static_cast<double>(total) /
                     static_cast<double>(blocks_.size());
    return w;
}

sim::Tick
Ftl::collectGarbage(sim::Tick ready)
{
    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ftl", "gc", ready)
        : 0;
    sim::Tick t = doCollectGarbage(ready);
    if (t > ready)
        gcPause_.record(t - ready);
    if (tracer_)
        tracer_->endSpan(sp, t);
    return t;
}

sim::Tick
Ftl::doCollectGarbage(sim::Tick ready)
{
    BSSD_OWN_GUARD(this);
    sim::Tick t = ready;
    while (freeList_.size() < cfg_.gcHighWaterBlocks) {
        std::uint32_t vi = pickVictim();
        if (vi == ~std::uint32_t(0))
            sim::panic("GC found no victim block");
        auto &victim = blocks_[vi];

        // Relocate the victim's valid pages to fresh locations.
        gcSrc_.clear();
        gcDst_.clear();
        std::uint32_t wp = flash_.writePointer(victim.die, victim.block);
        for (std::uint32_t p = 0; p < wp; ++p) {
            Lpn lpn = victim.pageLpn[p];
            if (lpn == ~Lpn(0))
                continue; // stale page
            nand::Ppa src{victim.die, victim.block, p};
            const nand::Ppa *cur = mapped(lpn);
            if (!cur || !(*cur == src))
                continue; // remapped since
            gcSrc_.push_back(src);
            gcDst_.push_back(relocate(lpn, src, t));
        }
        // Relocations batch naturally: the victim-die reads share one
        // channel while the multi-plane programs fan out across the
        // destination dies' channels.
        t = std::max(t, flash_.timedRead(t, gcSrc_).iv.end);
        t = std::max(t, flash_.timedProgram(t, gcDst_).iv.end);
        sim::tracepointHit(faults_, tracer_, sim::Tp::ftlGcErase, t);
        if (!flash_.eraseBlock(victim.die, victim.block)) {
            // Erase failure: grown defect. Retire the victim instead
            // of freeing it; its valid pages were relocated above, so
            // nothing is lost, but the pool shrinks by one block.
            flash_.markBad(victim.die, victim.block);
            ++grownBad_;
            victim.free = false;
            victim.open = false;
            victim.validPages = 0;
            victim.pageLpn.clear();
            t = flash_.timedErase(t, victim.die).end;
            continue;
        }
        t = flash_.timedErase(t, victim.die).end;
        victim.free = true;
        victim.open = false;
        victim.validPages = 0;
        victim.pageLpn.clear();
        freeList_.insert(freeList_.begin(), vi);
    }
    return t;
}

void
Ftl::backgroundGcSteps(sim::Tick now)
{
    if (freeList_.size() >= cfg_.gcHighWaterBlocks)
        return;
    // One step rides along with every host op while the pool is low;
    // an idle gap since the last op earns up to three catch-up steps.
    std::uint32_t steps = 1;
    if (cfg_.gcIdleThreshold > 0 && now > lastHostEnd_) {
        sim::Tick gap = now - lastHostEnd_;
        steps += static_cast<std::uint32_t>(
            std::min<sim::Tick>(3, gap / cfg_.gcIdleThreshold));
    }
    for (std::uint32_t s = 0;
         s < steps && freeList_.size() < cfg_.gcHighWaterBlocks; ++s) {
        backgroundGcStep(now);
    }
}

void
Ftl::backgroundGcStep(sim::Tick now)
{
    // Revalidate the in-flight victim: a foreground fallback episode
    // or a block retirement may have recycled it between steps.
    if (gcVictim_ >= 0) {
        const auto &v = blocks_[static_cast<std::size_t>(gcVictim_)];
        if (v.free || v.open || flash_.isBad(v.die, v.block) ||
            flash_.eraseCount(v.die, v.block) != gcVictimWear_) {
            gcVictim_ = -1;
        }
    }
    if (gcVictim_ < 0) {
        std::uint32_t vi = pickVictim();
        if (vi == ~std::uint32_t(0))
            return; // nothing collectable yet
        gcVictim_ = vi;
        gcScanPage_ = 0;
        gcVictimWear_ =
            flash_.eraseCount(blocks_[vi].die, blocks_[vi].block);
    }

    sim::SpanId sp =
        tracer_ ? tracer_->beginSpan("ftl", "gc_step", now) : 0;
    sim::tracepointHit(faults_, tracer_, sim::Tp::ftlGcStep, now);
    ++gcSteps_;

    auto &victim = blocks_[static_cast<std::size_t>(gcVictim_)];
    gcSrc_.clear();
    gcDst_.clear();
    const std::uint32_t wp = flash_.writePointer(victim.die, victim.block);
    while (gcScanPage_ < wp && gcSrc_.size() < cfg_.gcStepPages) {
        std::uint32_t p = gcScanPage_++;
        Lpn lpn = victim.pageLpn[p];
        if (lpn == ~Lpn(0))
            continue; // stale page
        nand::Ppa src{victim.die, victim.block, p};
        const nand::Ppa *cur = mapped(lpn);
        if (!cur || !(*cur == src))
            continue; // remapped since
        gcSrc_.push_back(src);
        gcDst_.push_back(relocate(lpn, src, now));
    }
    // Background reservations: later host reads may claim these slots
    // (read priority) and the erase below is suspendable.
    sim::Tick t = now;
    t = std::max(t, flash_.timedGcRead(t, gcSrc_).iv.end);
    t = std::max(t, flash_.timedGcProgram(t, gcDst_).iv.end);
    const sim::Tick relocEnd = t;

    if (gcScanPage_ >= wp) {
        // Victim fully scanned: erase it and return it to the pool.
        sim::tracepointHit(faults_, tracer_, sim::Tp::ftlGcErase, t);
        const auto vi = static_cast<std::uint32_t>(gcVictim_);
        if (!flash_.eraseBlock(victim.die, victim.block)) {
            // Grown defect: retire instead of freeing (pages already
            // relocated, but the pool shrinks by one block).
            flash_.markBad(victim.die, victim.block);
            ++grownBad_;
        } else {
            victim.free = true;
            freeList_.insert(freeList_.begin(), vi);
        }
        victim.open = false;
        victim.validPages = 0;
        victim.pageLpn.clear();
        t = flash_.timedGcErase(t, victim.die).end;
        gcVictim_ = -1;
    }

    if (t > now)
        gcStepLat_.record(t - now);
    if (tracer_) {
        if (relocEnd > now)
            tracer_->phase("relocate", now, relocEnd);
        if (t > relocEnd)
            tracer_->phase("erase", relocEnd, t);
        tracer_->endSpan(sp, t);
    }
}

sim::Interval
Ftl::read(sim::Tick ready, Lpn lpn, std::uint64_t count,
          std::span<std::uint8_t> out)
{
    BSSD_OWN_GUARD(this);
    if (lpn + count > logicalPages_)
        sim::fatal("FTL read past logical capacity: lpn ", lpn, "+", count);
    if (out.size() < count * pageSize_)
        sim::panic("FTL read buffer too small");

    // Background GC reserves its die time first; the host read then
    // bypasses or suspends it per the scheduler knobs.
    if (cfg_.backgroundGc)
        backgroundGcSteps(ready);

    ioPpas_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        auto sub = out.subspan(i * pageSize_, pageSize_);
        const nand::Ppa *ppa = mapped(lpn + i);
        if (!ppa) {
            std::fill(sub.begin(), sub.end(), 0xff);
        } else {
            flash_.readPage(*ppa, sub);
            ioPpas_.push_back(*ppa);
        }
    }
    // Unmapped pages are served from the mapping table alone; only
    // mapped pages cost NAND time.
    if (!tracer_) {
        auto op = flash_.timedRead(ready, ioPpas_);
        readLat_.record(op.iv.end - ready);
        lastHostEnd_ = std::max(lastHostEnd_, op.iv.end);
        return op.iv;
    }
    sim::SpanId sp = tracer_->beginSpan("ftl", "read", ready);
    auto op = flash_.timedRead(ready, ioPpas_);
    tracer_->phase("wait", ready, op.iv.start);
    tracer_->phase("media", op.iv.start, op.mediaEnd);
    tracer_->phase("chan_xfer", op.mediaEnd, op.iv.end);
    tracer_->endSpan(sp, op.iv.end);
    readLat_.record(op.iv.end - ready);
    lastHostEnd_ = std::max(lastHostEnd_, op.iv.end);
    return op.iv;
}

sim::Interval
Ftl::write(sim::Tick ready, Lpn lpn, std::uint64_t count,
           std::span<const std::uint8_t> data)
{
    BSSD_OWN_GUARD(this);
    if (lpn + count > logicalPages_)
        sim::fatal("FTL write past logical capacity: lpn ", lpn, "+", count);
    if (data.size() < count * pageSize_)
        sim::panic("FTL write buffer too small");

    // Background steps run as their own top-level spans, before the
    // write span opens; the foreground path below stays as the hard
    // floor when the pool hits the low watermark anyway.
    if (cfg_.backgroundGc)
        backgroundGcSteps(ready);

    sim::SpanId sp = tracer_
        ? tracer_->beginSpan("ftl", "write", ready)
        : 0;

    sim::Tick t = ready;
    if (freeList_.size() <= cfg_.gcLowWaterBlocks)
        t = collectGarbage(t);
    if (tracer_ && t > ready)
        tracer_->phase("gc_stall", ready, t);

    ioPpas_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        ioPpas_.push_back(writeOnePage(
            lpn + i, data.subspan(i * pageSize_, pageSize_), t));
        ++hostPages_;
    }
    // One timed program for the whole request: the frontier's per-die
    // runs coalesce into multi-plane program chunks, exactly how the
    // controller batches.
    auto op = flash_.timedProgram(t, ioPpas_);
    if (tracer_) {
        tracer_->phase("wait", t, op.iv.start);
        tracer_->phase("media", op.iv.start, op.iv.end);
        tracer_->endSpan(sp, op.iv.end);
    }
    writeLat_.record(op.iv.end - ready);
    lastHostEnd_ = std::max(lastHostEnd_, op.iv.end);
    return {t, op.iv.end};
}

void
Ftl::readUntimed(Lpn lpn, std::uint64_t count,
                 std::span<std::uint8_t> out) const
{
    if (lpn + count > logicalPages_)
        sim::fatal("FTL read past logical capacity: lpn ", lpn, "+", count);
    if (out.size() < count * pageSize_)
        sim::panic("FTL read buffer too small");
    for (std::uint64_t i = 0; i < count; ++i) {
        auto sub = out.subspan(i * pageSize_, pageSize_);
        if (const nand::Ppa *ppa = mapped(lpn + i))
            flash_.readPage(*ppa, sub);
        else
            std::fill(sub.begin(), sub.end(), 0xff);
    }
}

sim::Interval
Ftl::prefetch(sim::Tick now, Lpn lpn, std::uint64_t count)
{
    if (lpn + count > logicalPages_)
        sim::fatal("FTL prefetch past logical capacity: lpn ", lpn, "+",
                   count);
    ioPpas_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        if (const nand::Ppa *ppa = mapped(lpn + i))
            ioPpas_.push_back(*ppa);
    }
    return flash_.timedRead(now, ioPpas_).iv;
}

void
Ftl::trim(Lpn lpn, std::uint64_t count)
{
    BSSD_OWN_GUARD(this);
    for (std::uint64_t i = 0; i < count; ++i)
        invalidate(lpn + i);
}

void
Ftl::registerMetrics(sim::MetricRegistry &reg,
                     const std::string &prefix) const
{
    reg.addHistogram(prefix + ".read_lat", readLat_);
    reg.addHistogram(prefix + ".write_lat", writeLat_);
    reg.addHistogram(prefix + ".gc.pause", gcPause_);
    reg.addHistogram(prefix + ".gc.step_lat", gcStepLat_);
    reg.addGauge(prefix + ".gc.steps", [this] {
        return static_cast<double>(gcSteps_);
    });
    reg.addGauge(prefix + ".gc.background", [this] {
        return cfg_.backgroundGc ? 1.0 : 0.0;
    });
    reg.addGauge(prefix + ".host_pages", [this] {
        return static_cast<double>(hostPages_);
    });
    reg.addGauge(prefix + ".nand_pages", [this] {
        return static_cast<double>(nandPages_);
    });
    reg.addGauge(prefix + ".gc.pages_moved", [this] {
        return static_cast<double>(gcPages_);
    });
    reg.addGauge(prefix + ".grown_bad_blocks", [this] {
        return static_cast<double>(grownBad_);
    });
    reg.addGauge(prefix + ".free_blocks", [this] {
        return static_cast<double>(freeBlocks());
    });
    reg.addGauge(prefix + ".waf", [this] { return waf(); });
}

} // namespace bssd::ftl

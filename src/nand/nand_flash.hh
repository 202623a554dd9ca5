/**
 * @file
 * Functional + timing model of a multi-channel NAND flash array.
 *
 * The functional half stores real page contents and enforces NAND
 * programming rules: a page must belong to an erased block and pages
 * within a block must be programmed in order. Memory follows touched
 * state, so an 800 GB array costs only what its pages hold: per-block
 * state (a few bytes) lives in table chunks allocated on a block's
 * first change, bad blocks in a bitmap, and each programmed page in a
 * page frame from a device-wide pool of fixed-size frame chunks,
 * taken by its program and handed back by its block's erase.
 *
 * The timing half models the channel -> way -> die topology: every
 * timed operation names the physical pages it touches and reserves
 * exactly the calendars its addresses map to. A page read occupies its
 * die for tR and its die's channel for the transfer; a program
 * occupies the channel for the chunk transfer then the die for tPROG;
 * an erase occupies its die for tBERS. Die d lives on channel
 * d % channels, way d / channels, so requests striped across
 * consecutive dies fan out across channels (the bandwidth curves of
 * Fig. 8) while same-die or same-channel streams contend honestly.
 */

#ifndef BSSD_NAND_NAND_FLASH_HH
#define BSSD_NAND_NAND_FLASH_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nand/die_sched.hh"
#include "nand/nand_config.hh"
#include "sim/fault.hh"
#include "sim/metrics.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::nand
{

/** Physical page address: (die, block, page). */
struct Ppa
{
    std::uint32_t die = 0;
    std::uint32_t block = 0;
    std::uint32_t page = 0;

    bool operator==(const Ppa &) const = default;
};

/** What one timed NAND operation was granted. */
struct TimedOp
{
    /** First reservation start to last reservation end. */
    sim::Interval iv;
    /**
     * When the last die finished its cell work (tR / tPROG). For reads
     * the channel transfers trail the cell reads, so
     * iv.start <= mediaEnd <= iv.end and [mediaEnd, iv.end) is pure
     * bus time; for programs mediaEnd == iv.end.
     */
    sim::Tick mediaEnd = 0;
};

/**
 * The NAND array. All "timed*" member functions reserve die/channel
 * resources and return the granted interval; the plain members mutate
 * or query functional state only.
 */
class NandFlash
{
  public:
    explicit NandFlash(const NandConfig &cfg);

    const NandConfig &config() const { return cfg_; }

    /** @name Functional operations @{ */

    /**
     * Read one page into @p out (must hold pageSize bytes). Reading a
     * never-programmed page yields the erased pattern (0xff).
     */
    void readPage(Ppa ppa, std::span<std::uint8_t> out) const;

    /**
     * Program one page. @pre the block is erased at or beyond this
     * page, and @p page equals the block's next unwritten page (NAND
     * in-order programming rule).
     *
     * @return false when the program operation fails (injected grown
     *         defect): the page is consumed but holds no data, and
     *         the FTL must retire the block and rewrite elsewhere.
     */
    bool programPage(Ppa ppa, std::span<const std::uint8_t> data);

    /**
     * Erase a whole block, releasing its pages.
     * @return false when the erase fails (injected grown defect); the
     *         block keeps its contents and must be retired.
     */
    bool eraseBlock(std::uint32_t die, std::uint32_t block);

    /** True if the given page has been programmed since last erase. */
    bool isProgrammed(Ppa ppa) const;

    /** Next page index to program in a block (pagesPerBlock if full).
     *  Panics on an out-of-range (die, block), as do eraseCount(),
     *  isBad() and markBad(). */
    std::uint32_t writePointer(std::uint32_t die,
                               std::uint32_t block) const;

    /** Erase cycles a block has seen (wear). */
    std::uint64_t eraseCount(std::uint32_t die, std::uint32_t block) const;

    /**
     * True if the block is marked bad (factory defect map or a later
     * markBad()). Programming or erasing a bad block panics: the FTL
     * must never touch it.
     */
    bool isBad(std::uint32_t die, std::uint32_t block) const;

    /** Retire a block (grown defect). */
    void markBad(std::uint32_t die, std::uint32_t block);

    /** Number of bad blocks in the array. */
    std::uint32_t badBlockCount() const;

    /** @} */

    /** @name Address mapping (topology invariants) @{ */

    /** Channel die @p die hangs off (die modulo channel count). */
    std::uint32_t
    channelOf(std::uint32_t die) const
    {
        return die % cfg_.geometry.channels;
    }

    /** Way (position on its channel) of die @p die. */
    std::uint32_t
    wayOf(std::uint32_t die) const
    {
        return die / cfg_.geometry.channels;
    }

    /** @} */

    /** @name Timed operations (resource reservations) @{
     *
     * Each call names the physical pages it touches; the grants land
     * on exactly the die and channel calendars those addresses map to.
     */

    /** Reserve die tR + channel transfer time for each page read. */
    TimedOp timedRead(sim::Tick ready, std::span<const Ppa> ppas);

    /**
     * Reserve channel transfer + die tPROG time for programming
     * @p ppas. Runs of up to programChunkBytes/pageSize consecutive
     * same-die pages share one chunk (multi-plane program); chunks on
     * the same channel or die serialize on those calendars.
     */
    TimedOp timedProgram(sim::Tick ready, std::span<const Ppa> ppas);

    /** Reserve die time for one block erase on @p die. */
    sim::Interval timedErase(sim::Tick ready, std::uint32_t die);

    /** @} */

    /** @name Timed background (GC) operations @{
     *
     * Same resource model as the host-facing variants, but the grants
     * are marked background in the die scheduler: later host reads may
     * claim their slot (read priority) and background erases are
     * suspendable, when NandSchedConfig enables those knobs.
     */

    TimedOp timedGcRead(sim::Tick ready, std::span<const Ppa> ppas);
    TimedOp timedGcProgram(sim::Tick ready, std::span<const Ppa> ppas);
    sim::Interval timedGcErase(sim::Tick ready, std::uint32_t die);

    /** @} */

    /** @name Statistics @{ */
    std::uint64_t pagesRead() const { return pagesRead_.value(); }
    std::uint64_t pagesProgrammed() const { return pagesProgrammed_.value(); }
    std::uint64_t blocksErased() const { return blocksErased_.value(); }
    /** @} */

    /** Reset timing calendars (not contents) for a fresh measurement. */
    void resetTiming();

    /** Install the rig's fault injector (nullptr disables). */
    void setFaultInjector(sim::FaultInjector *f) { faults_ = f; }

    /** Install the rig's tracer (nullptr disables). */
    void setTracer(sim::Tracer *t) { tracer_ = t; }

    /** Program operations that failed (injected faults). */
    std::uint64_t programFailures() const { return programFails_.value(); }
    /** Erase operations that failed (injected faults). */
    std::uint64_t eraseFailures() const { return eraseFails_.value(); }

    /** Erases suspended by host reads (scheduler events). */
    std::uint64_t eraseSuspends() const { return dies_.eraseSuspends(); }
    /** Host reads that claimed a background op's slot. */
    std::uint64_t readBypasses() const { return dies_.readBypasses(); }

    /** Attach the array's counters to @p reg under @p prefix ("ssd0.nand"). */
    void
    registerMetrics(sim::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        reg.addCounter(prefix + ".pages_read", pagesRead_);
        reg.addCounter(prefix + ".pages_programmed", pagesProgrammed_);
        reg.addCounter(prefix + ".blocks_erased", blocksErased_);
        reg.addCounter(prefix + ".program_fails", programFails_);
        reg.addCounter(prefix + ".erase_fails", eraseFails_);
        reg.addGauge(prefix + ".erase_suspends", [this] {
            return static_cast<double>(dies_.eraseSuspends());
        });
        reg.addGauge(prefix + ".read_bypasses", [this] {
            return static_cast<double>(dies_.readBypasses());
        });
        reg.addGauge(prefix + ".chan.busy_ticks", [this] {
            sim::Tick t = 0;
            for (const auto &ch : channels_)
                t += ch.busyTime();
            return static_cast<double>(t);
        });
        reg.addGauge(prefix + ".chan.xfers", [this] {
            std::uint64_t n = 0;
            for (const auto &ch : channels_)
                n += ch.grants();
            return static_cast<double>(n);
        });
    }

  private:
    NandConfig cfg_;

    /** A block's state. All zero is a never-touched block. */
    struct BlockState
    {
        std::uint32_t writePtr = 0;
        std::uint32_t eraseCount = 0;
        /** Frame + 1 holding each page, 0 for a page that holds no
         *  data (unwritten, erased or failed), which reads 0xff.
         *  Allocated at the block's first program. */
        std::unique_ptr<std::uint32_t[]> frames;
    };

    /** Blocks per lazily allocated table chunk (log2). */
    static constexpr unsigned blockChunkShift = 6;

    /** Per-block state by blockIndex(), in chunks of
     *  2^blockChunkShift blocks allocated on a block's first change;
     *  a missing chunk reads as never-touched blocks. */
    std::vector<std::unique_ptr<BlockState[]>> blockChunks_;
    /** One bit per block, set when the block is bad. */
    std::vector<std::uint64_t> badBits_;
    std::uint32_t badCount_ = 0;

    /** @name The page-frame pool @{
     *  Frames are carved from chunks of framesPerChunk pages, never
     *  initialised: a frame's bytes are written by the program that
     *  takes it before any read can reach them. */
    static constexpr std::uint32_t framesPerChunk = 16;
    std::size_t chunkBytes_ = 0;
    std::vector<std::unique_ptr<std::uint8_t[]>> frameChunks_;
    /** Frames carved so far; frame f lives in chunk f / framesPerChunk. */
    std::uint32_t nextFrame_ = 0;
    /** Frames erased blocks handed back, reused before new ones. */
    std::vector<std::uint32_t> freeFrames_;
    /** @} */

    DieScheduler dies_;
    /** One FIFO bus calendar per channel, indexed by channelOf(). */
    std::vector<sim::FifoResource> channels_;
    sim::FaultInjector *faults_ = nullptr;
    sim::Tracer *tracer_ = nullptr;
    /// mutable: reads are logically const but still counted.
    mutable sim::Counter pagesRead_{"nand.pagesRead"};
    sim::Counter pagesProgrammed_{"nand.pagesProgrammed"};
    sim::Counter blocksErased_{"nand.blocksErased"};
    sim::Counter programFails_{"nand.programFails"};
    sim::Counter eraseFails_{"nand.eraseFails"};

    /** Dense block number: die * blocksPerDie + block. */
    std::uint32_t blockIndex(std::uint32_t die, std::uint32_t block) const
    {
        return die * cfg_.geometry.blocksPerDie + block;
    }
    /** The state of block @p idx; nullptr when it was never touched. */
    const BlockState *findBlock(std::uint32_t idx) const;
    /** The state of block @p idx, allocating its chunk if needed. */
    BlockState &blockAt(std::uint32_t idx);
    /** A frame from the pool: a free one, else a new one carved from
     *  the last chunk, or from a new chunk. */
    std::uint32_t takeFrame();
    std::uint8_t *frameAt(std::uint32_t frame) const;
    /** Frame + 1 holding @p page of the block in @p st, or 0. */
    static std::uint32_t frameOf(const BlockState *st, std::uint32_t page);
    void checkPpa(Ppa ppa) const;
    sim::Tick pageTransferTime() const;
    TimedOp doTimedRead(sim::Tick ready, std::span<const Ppa> ppas,
                        bool background);
    TimedOp doTimedProgram(sim::Tick ready, std::span<const Ppa> ppas,
                           bool background);
    sim::Interval doTimedErase(sim::Tick ready, std::uint32_t die,
                               bool background);
};

} // namespace bssd::nand

#endif // BSSD_NAND_NAND_FLASH_HH

/**
 * @file
 * The rig factory: one log device plus everything backing it, built
 * the same way for every user.
 *
 * The cluster's shards, the crash matrix, the fault-injection
 * campaign, the crash_campaign tool and the application benches all
 * construct rigs through this header, so each preset (device
 * geometry, GC knobs, region/half/buffer sizes) is written once here
 * and a repro line printed by any of them can be replayed by all of
 * them. Stores run on top of Rig::log. Each rig is fully
 * self-contained (own device, own domain and event queue, own RNG
 * streams), which is what lets the sweep harness run rigs on
 * concurrent worker threads and the parallel engine run cluster
 * shards in their own domains with bit-identical results.
 */

#ifndef BSSD_WAL_RIG_HH
#define BSSD_WAL_RIG_HH

#include <cstdint>
#include <memory>
#include <string>

#include "ba/two_b_ssd.hh"
#include "host/host_memory.hh"
#include "sim/fault.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "ssd/ssd_device.hh"
#include "wal/log_device.hh"
#include "wal/replicated_wal.hh"

namespace bssd::rigs
{

/** Every WAL implementation a rig can host. Add new kinds last: gtest
 *  lists a parameterised case with its kind's raw value. */
enum class WalKind
{
    block,        ///< page-aligned block WAL with fsync
    ba,           ///< 2B-SSD BA-WAL, double-buffered halves
    baSingle,     ///< 2B-SSD BA-WAL, single buffer
    baRepl,       ///< BA-WAL replicated to a follower 2B-SSD
    pm,           ///< host persistent memory + block destage
    pmr,          ///< PMR window + host destage
    async,        ///< no durability (baseline)
    baReplSingle, ///< baRepl with single-buffered BA-WALs
};

/** Short name of @p k ("block", "ba_single", ...), as in repro lines. */
const char *walName(WalKind k);

/** How to build one rig. Zero-valued sizes mean "the WAL's default". */
struct RigSpec
{
    WalKind wal = WalKind::block;

    /** Which block-device preset backs the rig. */
    enum class Device { tiny, dc, ull } device = Device::tiny;

    /** Device name, which is also its domain's name (empty = the
     *  preset's). A replicated rig's follower is "<name>.follower". */
    std::string name;

    /** WAL region size (block/ba/pm/pmr). 0 = WAL default. */
    std::uint64_t regionBytes = 0;
    /** Half/window size for half-based WALs. 0 = WAL default. */
    std::uint64_t halfBytes = 0;
    /** BA-buffer capacity for 2B-SSD rigs. 0 = BaConfig default. */
    std::uint64_t baBufferBytes = 0;

    /** Blocks per die override (0 = preset default). Shrinking the
     *  array is how GC-focused rigs make a short op stream churn the
     *  free pool. */
    std::uint32_t blocksPerDie = 0;
    /** Enable incremental background GC plus the die-scheduler knobs
     *  (read priority, erase suspend) on the rig's device. */
    bool backgroundGc = false;
    /** Pages relocated per background GC step (0 = FTL default).
     *  Setting this below pagesPerBlock leaves victims partially
     *  relocated between steps - the state mid-relocation crash points
     *  need to exist. */
    std::uint32_t gcStepPages = 0;
};

/** A log device plus everything backing it, kept alive together. */
struct Rig
{
    std::unique_ptr<ssd::SsdDevice> blockDev;
    std::unique_ptr<ba::TwoBSsd> twoB;
    /** Follower 2B-SSD of a replicated rig (baRepl/baReplSingle). */
    std::unique_ptr<ba::TwoBSsd> followerTwoB;
    std::unique_ptr<host::PersistentMemory> pm;
    std::unique_ptr<wal::LogDevice> log;
    /** Non-owning view of log when it is a ReplicatedWal. */
    wal::ReplicatedWal *repl = nullptr;

    /** The device SSTs/manifest live on (for minirocks); its domain
     *  is the rig's domain. */
    ssd::SsdDevice &
    dataDevice()
    {
        return twoB ? twoB->device() : *blockDev;
    }

    /** Simulation events fired by the rig's device (0 if none). */
    std::uint64_t eventsFired() const;

    /**
     * Install a fault injector into every layer this rig owns. Call
     * AFTER construction so setup-time activity (half pinning, region
     * truncation) is not counted as op-stream tracepoint hits.
     */
    void installFaultInjector(sim::FaultInjector *f);

    /**
     * Install a tracer into every layer this rig owns (same cascade
     * and same call-after-construction advice as the fault injector;
     * setup-time spans would otherwise pollute the op-stream trace).
     */
    void installTracer(sim::Tracer *t);

    /**
     * Attach every statistic this rig owns to @p reg. The device
     * stack lands under "<prefix>.ba" / "<prefix>.ssd" (the follower
     * under "<prefix>.follower_ba") and the log under "<prefix>.wal".
     */
    void registerMetrics(sim::MetricRegistry &reg,
                         const std::string &prefix = "rig") const;
};

/** Build one rig from a spec. */
Rig makeRig(const RigSpec &spec);

/** The crash-matrix preset: tiny device, 1 MiB region, 32 KiB halves,
 *  128 KiB BA-buffer. Small enough that half switches and destage
 *  paths are exercised by a ~100-op stream. */
RigSpec tinySpec(WalKind k);

inline Rig
makeTinyRig(WalKind k)
{
    return makeRig(tinySpec(k));
}

/**
 * The GC-campaign preset: the tiny rig shrunk to 6 blocks per die
 * (24 blocks, 83 logical pages) with background GC and the scheduler
 * knobs on, so a ~2000-op stream wraps the WAL region dozens of times
 * and keeps the incremental GC engine (ftl.gcStep / ftl.gcErase
 * tracepoints) continuously active. The default tiny crash rigs stay
 * foreground-GC: their enumerated hit sequences are a compatibility
 * surface.
 */
RigSpec gcSpec(WalKind k);

} // namespace bssd::rigs

#endif // BSSD_WAL_RIG_HH

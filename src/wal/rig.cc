#include "wal/rig.hh"

#include "wal/async_wal.hh"
#include "wal/ba_wal.hh"
#include "wal/block_wal.hh"
#include "wal/pm_wal.hh"
#include "wal/pmr_wal.hh"

namespace bssd::rigs
{

namespace
{

ssd::SsdConfig
presetConfig(RigSpec::Device d)
{
    switch (d) {
      case RigSpec::Device::tiny: return ssd::SsdConfig::tiny();
      case RigSpec::Device::dc: return ssd::SsdConfig::dcSsd();
      case RigSpec::Device::ull: return ssd::SsdConfig::ullSsd();
    }
    return ssd::SsdConfig::tiny();
}

/** The spec's device preset with its name and geometry/GC overrides. */
ssd::SsdConfig
deviceConfig(const RigSpec &spec)
{
    ssd::SsdConfig cfg = presetConfig(spec.device);
    if (!spec.name.empty())
        cfg.name = spec.name;
    if (spec.blocksPerDie)
        cfg.nandCfg.geometry.blocksPerDie = spec.blocksPerDie;
    if (spec.backgroundGc) {
        cfg.ftlCfg.backgroundGc = true;
        cfg.nandCfg.sched.readPriority = true;
        cfg.nandCfg.sched.eraseSuspend = true;
    }
    if (spec.gcStepPages)
        cfg.ftlCfg.gcStepPages = spec.gcStepPages;
    return cfg;
}

} // namespace

const char *
walName(WalKind k)
{
    switch (k) {
      case WalKind::block: return "block";
      case WalKind::ba: return "ba";
      case WalKind::baSingle: return "ba_single";
      case WalKind::baRepl: return "ba_repl";
      case WalKind::pm: return "pm";
      case WalKind::pmr: return "pmr";
      case WalKind::async: return "async";
      case WalKind::baReplSingle: return "ba_repl_single";
    }
    return "?";
}

std::uint64_t
Rig::eventsFired() const
{
    std::uint64_t n = twoB ? twoB->events().totalFired() : 0;
    if (followerTwoB)
        n += followerTwoB->events().totalFired();
    return n;
}

void
Rig::installFaultInjector(sim::FaultInjector *f)
{
    if (twoB)
        twoB->installFaultInjector(f);
    if (blockDev)
        blockDev->setFaultInjector(f);
    if (pm)
        pm->setFaultInjector(f);
    // Replicated rigs: the injector covers the PRIMARY side plus the
    // ship/ack edges. The follower device deliberately gets no
    // injector - power cuts model losing the primary, and the follower
    // must stay healthy enough to be promoted.
    if (repl)
        repl->setFaultInjector(f);
}

void
Rig::installTracer(sim::Tracer *t)
{
    if (twoB)
        twoB->installTracer(t);
    if (followerTwoB)
        followerTwoB->installTracer(t);
    if (blockDev)
        blockDev->setTracer(t);
    if (pm)
        pm->setTracer(t);
    if (log)
        log->setTracer(t);
}

void
Rig::registerMetrics(sim::MetricRegistry &reg,
                     const std::string &prefix) const
{
    if (twoB)
        twoB->registerMetrics(reg, prefix + ".ba");
    if (followerTwoB)
        followerTwoB->registerMetrics(reg, prefix + ".follower_ba");
    if (blockDev)
        blockDev->registerMetrics(reg, prefix + ".ssd");
    if (log)
        log->registerMetrics(reg, prefix + ".wal");
}

Rig
makeRig(const RigSpec &spec)
{
    Rig rig;
    const ssd::SsdConfig dev = deviceConfig(spec);
    ba::BaConfig bc;
    if (spec.baBufferBytes)
        bc.bufferBytes = spec.baBufferBytes;
    wal::BaWalConfig baCfg;
    if (spec.regionBytes)
        baCfg.regionBytes = spec.regionBytes;
    if (spec.halfBytes)
        baCfg.halfBytes = spec.halfBytes;
    baCfg.doubleBuffer =
        spec.wal != WalKind::baSingle && spec.wal != WalKind::baReplSingle;
    switch (spec.wal) {
      case WalKind::block: {
        rig.blockDev = std::make_unique<ssd::SsdDevice>(dev);
        wal::BlockWalConfig cfg;
        if (spec.regionBytes)
            cfg.regionBytes = spec.regionBytes;
        rig.log = std::make_unique<wal::BlockWal>(*rig.blockDev, cfg);
        break;
      }
      case WalKind::ba:
      case WalKind::baSingle:
        rig.twoB = std::make_unique<ba::TwoBSsd>(dev, bc);
        rig.log = std::make_unique<wal::BaWal>(*rig.twoB, baCfg);
        break;
      case WalKind::baRepl:
      case WalKind::baReplSingle: {
        ssd::SsdConfig followerDev = dev;
        followerDev.name += ".follower";
        rig.twoB = std::make_unique<ba::TwoBSsd>(dev, bc);
        rig.followerTwoB =
            std::make_unique<ba::TwoBSsd>(followerDev, bc);
        auto repl = std::make_unique<wal::ReplicatedWal>(
            std::make_unique<wal::BaWal>(*rig.twoB, baCfg),
            std::make_unique<wal::BaWal>(*rig.followerTwoB, baCfg));
        rig.repl = repl.get();
        rig.log = std::move(repl);
        break;
      }
      case WalKind::pm: {
        rig.blockDev = std::make_unique<ssd::SsdDevice>(dev);
        rig.pm = std::make_unique<host::PersistentMemory>();
        wal::PmWalConfig cfg;
        if (spec.regionBytes)
            cfg.regionBytes = spec.regionBytes;
        if (spec.halfBytes)
            cfg.halfBytes = spec.halfBytes;
        rig.log = std::make_unique<wal::PmWal>(*rig.pm, *rig.blockDev,
                                               cfg);
        break;
      }
      case WalKind::pmr: {
        rig.twoB = std::make_unique<ba::TwoBSsd>(dev, bc);
        wal::PmrWalConfig cfg;
        if (spec.regionBytes)
            cfg.regionBytes = spec.regionBytes;
        if (spec.halfBytes)
            cfg.halfBytes = spec.halfBytes;
        rig.log = std::make_unique<wal::PmrWal>(*rig.twoB, cfg);
        break;
      }
      case WalKind::async:
        rig.blockDev = std::make_unique<ssd::SsdDevice>(dev);
        rig.log = std::make_unique<wal::AsyncWal>();
        break;
    }
    return rig;
}

RigSpec
tinySpec(WalKind k)
{
    RigSpec s;
    s.wal = k;
    s.device = RigSpec::Device::tiny;
    s.regionBytes = sim::MiB;
    s.halfBytes = 32 * sim::KiB;
    s.baBufferBytes = 128 * sim::KiB;
    return s;
}

RigSpec
gcSpec(WalKind k)
{
    RigSpec s = tinySpec(k);
    s.regionBytes = 128 * sim::KiB;
    s.halfBytes = 16 * sim::KiB;
    s.baBufferBytes = 64 * sim::KiB;
    s.blocksPerDie = 6;
    s.backgroundGc = true;
    // 3 < pagesPerBlock (8): victims stay partially relocated across
    // steps, so enumerated ftl.gcStep cuts land mid-relocation.
    s.gcStepPages = 3;
    return s;
}

} // namespace bssd::rigs

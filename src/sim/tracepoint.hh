/**
 * @file
 * Durability tracepoints: the named protocol stages at which the
 * fault-injection framework can observe, perturb, or power-cut a
 * simulation (DESIGN.md section 8).
 *
 * Every layer of the stack that participates in making bytes durable
 * announces its protocol steps by calling FaultInjector::hit() with
 * one of these identifiers. The set is deliberately closed (an enum,
 * not strings): the crash-point campaign enumerates every hit of every
 * tracepoint during a run, so the namespace must be stable and cheap
 * to index.
 */

#ifndef BSSD_SIM_TRACEPOINT_HH
#define BSSD_SIM_TRACEPOINT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace bssd::sim
{

/**
 * Durability-relevant protocol stages, one per instrumented call site
 * class. Ordering is part of the determinism contract: the global hit
 * index of a run depends only on the op stream and the fault plan.
 */
enum class Tp : std::uint8_t
{
    /** WC-buffer line eviction (bytes leave the CPU as a posted burst). */
    wcEvict,
    /** clflush+mfence flush of a WC range (the BA_SYNC first half). */
    wcFlush,
    /** A posted-write burst handed to the PCIe root complex. */
    pciePosted,
    /** The zero-byte write-verify read (the durability barrier). */
    pcieVerify,
    /** BA_SYNC / mmioSync entry (about to flush + verify). */
    baSync,
    /** BA_PIN entry (about to install a mapping + fill the window). */
    baPin,
    /** BA_FLUSH entry (about to copy a window to NAND and unpin). */
    baFlush,
    /** One chunk of the capacitor-powered power-loss dump. */
    baDumpChunk,
    /** A store into host persistent memory (PM-WAL append path). */
    pmWrite,
    /** clwb+sfence persistence barrier on host PM. */
    pmBarrier,
    /** Block write accepted by the SSD frontend (past the LBA gate). */
    ssdWriteStart,
    /** Block write admitted to the capacitor-backed write buffer,
     *  about to destage through the FTL. */
    ssdWriteAdmit,
    /** NVMe FLUSH processed by the frontend. */
    ssdFlush,
    /** FTL about to program one logical page (mid-destage). */
    ftlProgram,
    /** FTL garbage collection about to erase a victim block. */
    ftlGcErase,
    /** NAND page program operation. */
    nandProgram,
    /** NAND block erase operation. */
    nandErase,
    /** Background GC about to run one incremental relocation step. */
    ftlGcStep,
    /** A host read suspended an in-flight NAND block erase. */
    nandEraseSuspend,
    /** Replicated WAL: primary about to ship a committed record batch
     *  to its follower over the inter-device link. */
    replShip,
    /** Replicated WAL: follower made the batch durable; the ack is
     *  about to travel back to the primary. */
    replAck,

    count_
};

/** Number of distinct tracepoints. */
constexpr std::uint32_t tpCount = static_cast<std::uint32_t>(Tp::count_);

/** Stable human-readable tracepoint name (logs, repro lines, docs). */
constexpr const char *
tpName(Tp tp)
{
    switch (tp) {
      case Tp::wcEvict: return "wc.evict";
      case Tp::wcFlush: return "wc.flush";
      case Tp::pciePosted: return "pcie.posted";
      case Tp::pcieVerify: return "pcie.verify";
      case Tp::baSync: return "ba.sync";
      case Tp::baPin: return "ba.pin";
      case Tp::baFlush: return "ba.flush";
      case Tp::baDumpChunk: return "ba.dumpChunk";
      case Tp::pmWrite: return "pm.write";
      case Tp::pmBarrier: return "pm.barrier";
      case Tp::ssdWriteStart: return "ssd.writeStart";
      case Tp::ssdWriteAdmit: return "ssd.writeAdmit";
      case Tp::ssdFlush: return "ssd.flush";
      case Tp::ftlProgram: return "ftl.program";
      case Tp::ftlGcErase: return "ftl.gcErase";
      case Tp::nandProgram: return "nand.program";
      case Tp::nandErase: return "nand.erase";
      case Tp::ftlGcStep: return "ftl.gcStep";
      case Tp::nandEraseSuspend: return "nand.eraseSuspend";
      case Tp::replShip: return "repl.ship";
      case Tp::replAck: return "repl.ack";
      case Tp::count_: break;
    }
    return "?";
}

/**
 * True when @p name follows the tracepoint grammar: a lowercase layer
 * namespace, one dot, then a step name of letters and digits that
 * starts with a letter ("ba.dumpChunk"). bssd-lint's xcheck-tracepoint
 * uses it to tell tracepoint-shaped literals from other dotted names.
 */
constexpr bool
tpNameWellFormed(std::string_view name)
{
    const std::size_t dot = name.find('.');
    if (dot == std::string_view::npos || dot == 0 || dot + 1 >= name.size())
        return false;
    for (std::size_t i = 0; i < dot; ++i) {
        if (name[i] < 'a' || name[i] > 'z')
            return false;
    }
    for (std::size_t i = dot + 1; i < name.size(); ++i) {
        const char c = name[i];
        const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
        const bool digit = c >= '0' && c <= '9';
        if (!letter && !(digit && i > dot + 1))
            return false;
    }
    return true;
}

/**
 * Inverse of tpName(): resolve a canonical name back to its enum
 * value, or nullopt for anything that is not exactly a tracepoint
 * name. Round-trip tested in tests/sim/test_tracepoint.cc.
 */
constexpr std::optional<Tp>
tpFromName(std::string_view name)
{
    for (std::uint32_t i = 0; i < tpCount; ++i) {
        const Tp tp = static_cast<Tp>(i);
        if (name == tpName(tp))
            return tp;
    }
    return std::nullopt;
}

// Every Tp has a case in tpName() (a missing one yields "?"), and each
// name is well formed and maps back to its own Tp, so none repeats.
static_assert(
    [] {
        for (std::uint32_t i = 0; i < tpCount; ++i) {
            const Tp tp = static_cast<Tp>(i);
            if (!tpNameWellFormed(tpName(tp)) || tpFromName(tpName(tp)) != tp)
                return false;
        }
        return true;
    }(),
    "every Tp needs a case in tpName() returning a unique ns.name string");

} // namespace bssd::sim

#endif // BSSD_SIM_TRACEPOINT_HH

/**
 * @file
 * Shared log-device rigs for the application-level benches.
 *
 * Fig. 9, Fig. 10 and the sweep harness all compare the same four
 * log-device configurations (DC-SSD, ULL-SSD, 2B-SSD, ASYNC). Rig
 * construction itself is the rig factory in src/wal/rig.hh (shared
 * with the cluster shards, the crash matrix and the fault-injection
 * campaign); this header maps the bench-facing RigKind onto its specs
 * and keeps the CLI helpers.
 */

#ifndef BSSD_BENCH_BENCH_RIGS_HH
#define BSSD_BENCH_BENCH_RIGS_HH

#include <cstdint>
#include <limits>

#include "bench_util.hh"
#include "wal/rig.hh"

namespace bssd::bench
{

/** The four log-device configurations of Figs. 9/10. */
enum class RigKind
{
    dc,
    ull,
    twoB,
    async,
};

inline const char *
rigName(RigKind k)
{
    switch (k) {
      case RigKind::dc: return "DC-SSD";
      case RigKind::ull: return "ULL-SSD";
      case RigKind::twoB: return "2B-SSD";
      case RigKind::async: return "ASYNC";
    }
    return "?";
}

/**
 * Build a log rig. @p baWalHalf selects the BA-WAL window size
 * (paper: half buffer for minipg, quarter for minirocks, whole for
 * miniredis), and @p doubleBuffer is off for miniredis.
 */
inline rigs::Rig
makeRig(RigKind k, std::uint64_t baWalHalf, bool doubleBuffer)
{
    rigs::RigSpec spec;
    spec.device = rigs::RigSpec::Device::ull;
    switch (k) {
      case RigKind::dc:
        spec.wal = rigs::WalKind::block;
        spec.device = rigs::RigSpec::Device::dc;
        break;
      case RigKind::ull:
        spec.wal = rigs::WalKind::block;
        break;
      case RigKind::twoB:
        spec.wal = doubleBuffer ? rigs::WalKind::ba
                                : rigs::WalKind::baSingle;
        spec.halfBytes = baWalHalf;
        break;
      case RigKind::async:
        spec.wal = rigs::WalKind::async;
        break;
    }
    return rigs::makeRig(spec);
}

/** Parse an optional `--threads=N` argument (0 = auto). */
inline unsigned
threadsArg(int argc, char **argv)
{
    return unsignedArg(argc, argv, "--threads",
                       std::numeric_limits<unsigned>::max())
        .value_or(0);
}

} // namespace bssd::bench

#endif // BSSD_BENCH_BENCH_RIGS_HH

/**
 * @file
 * Parallel benchmark-sweep harness.
 *
 * Every figure in EXPERIMENTS.md is a matrix of independent
 * single-threaded simulations (device preset × workload × client count
 * × seed). This harness runs those cells concurrently on a thread
 * pool: each job owns its device, RNG streams and stats, and writes
 * only its own result slot, so the results are bit-identical to a
 * serial run — parallelism changes wall-clock, never numbers
 * (test_sweep_determinism asserts this).
 *
 * Also provides the consolidated JSON emitter the sweep binaries use
 * (`BENCH_sweep.json`): one record per cell with the config, ops/s,
 * mean/p99 latency, host wall-clock and simulation event rate.
 */

#ifndef BSSD_SIM_SWEEP_HH
#define BSSD_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace bssd::sim
{

/** Worker count used when runParallel() is asked for 0 threads. */
unsigned defaultSweepThreads();

/**
 * Execute @p jobs on @p threads pool workers and return when all have
 * finished. Jobs must be self-contained (no shared mutable state);
 * job order in the vector is the result order, regardless of which
 * worker runs which job.
 *
 * @param threads 0 = defaultSweepThreads(); 1 = run inline (serial).
 *
 * The first exception thrown by any job is rethrown on the caller's
 * thread after every worker has drained.
 */
void runParallel(const std::vector<std::function<void()>> &jobs,
                 unsigned threads = 0);

/** One (config, result) row of a sweep. */
struct SweepRecord
{
    std::string device;   ///< device preset label (DC-SSD, 2B-SSD, ...)
    std::string workload; ///< workload label (linkbench, ycsba-16, ...)
    unsigned clients = 0;
    std::uint64_t seed = 0;

    std::uint64_t ops = 0;
    double opsPerSec = 0.0;
    double meanUs = 0.0;
    double p99Us = 0.0;
    double wallMs = 0.0;       ///< host wall-clock of this cell
    double eventsPerSec = 0.0; ///< simulated events / host second (0 = n/a)
};

/**
 * Write the consolidated sweep report: `{"threads": N, "wall_ms": W,
 * "runs": [...]}`, one object per record, stable field order.
 */
void writeSweepJson(std::ostream &os,
                    const std::vector<SweepRecord> &records,
                    unsigned threads, double totalWallMs);

} // namespace bssd::sim

#endif // BSSD_SIM_SWEEP_HH

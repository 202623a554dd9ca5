/**
 * @file
 * Machine-readable run reports and the periodic gauge sampler
 * (DESIGN.md section 9).
 *
 * GaugeSampler turns the registry's gauges (GC backlog, free blocks,
 * WAF, BA-buffer occupancy, WC dirty lines, ...) into a time series on
 * the simulated clock. The simulation has no global scheduler to hang
 * a timer on - timing is straight-line - so the driving loop pumps
 * sample() with its current tick and the sampler records one row each
 * time the clock crosses the next due point. Same op stream, same
 * rows.
 *
 * RunReport is the end-of-run JSON document emitted by the bench rigs
 * and tools/crash_campaign: bench/config identity, the full metrics
 * snapshot, the per-phase latency breakdown from the tracer, and the
 * sampled gauge series when one was collected.
 */

#ifndef BSSD_SIM_REPORT_HH
#define BSSD_SIM_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::sim
{

/** Periodic sampler over a registry's gauges (simulated time). */
class GaugeSampler
{
  public:
    struct Row
    {
        Tick at = 0;
        std::vector<double> values;
    };

    /**
     * @param registry gauge source; must outlive the sampler. The
     *                 column set is fixed at construction.
     * @param period   simulated ticks between rows.
     */
    GaugeSampler(const MetricRegistry &registry, Tick period);

    /**
     * Advance the sampled clock to @p now: records one row the first
     * time @p now reaches or passes the next due tick. Cheap when not
     * due (one compare).
     */
    void sample(Tick now);

    const std::vector<std::string> &columns() const { return columns_; }
    const std::vector<Row> &rows() const { return rows_; }
    Tick period() const { return period_; }

    /** `{"period": ..., "columns": [...], "rows": [[at, v...], ...]}` */
    void writeJson(std::ostream &os, int indent = 0) const;

  private:
    const MetricRegistry &registry_;
    Tick period_;
    Tick nextDue_ = 0;
    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

/**
 * A detached, mergeable gauge time series: the union of one or more
 * GaugeSamplers. Used by multi-shard runs where each shard samples
 * its own registry — merge() is a COLUMN UNION joined on sample tick,
 * so a gauge path that exists in only one shard's registry (e.g. the
 * rebalance target's inbound-keys gauge) survives the merge instead
 * of being dropped; rows missing a column carry 0. Merging samplers
 * in a fixed order (host, then shard id order) keeps the table — and
 * its JSON — a pure function of the run.
 */
struct SeriesTable
{
    struct Row
    {
        Tick at = 0;
        std::vector<double> values;
    };

    /** Period of the first merged sampler (informational). */
    Tick period = 0;
    /** Union of merged column sets, in first-seen order. */
    std::vector<std::string> columns;
    /** Rows sorted by tick; values index-aligned with columns. */
    std::vector<Row> rows;

    /** Fold @p s into the table (column union, rows joined on tick). */
    void merge(const GaugeSampler &s);

    /** Same shape as GaugeSampler::writeJson. */
    void writeJson(std::ostream &os, int indent = 0) const;
};

/** End-of-run machine-readable report. */
struct RunReport
{
    /** Emitting binary ("bench_fig7_latency", "crash_campaign", ...). */
    std::string bench;
    /** Free-form configuration identity (preset, op mix, ...). */
    std::string config;
    std::uint64_t seed = 0;

    MetricsSnapshot metrics;
    std::vector<Tracer::PhaseStat> phases;
    /** Optional gauge time series; null when none was sampled. */
    const GaugeSampler *series = nullptr;

    /**
     * Emit the report as one JSON object with stable field order:
     * identity, "metrics" (path-sorted), "phases" (cat/name-sorted
     * rows with count/total/min/max/p50/p99 ticks), and "series".
     */
    void writeJson(std::ostream &os) const;
};

} // namespace bssd::sim

#endif // BSSD_SIM_REPORT_HH

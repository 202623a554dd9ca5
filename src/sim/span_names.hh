/**
 * @file
 * Canonical span and phase names (the tracing vocabulary).
 *
 * Tracers intern whatever strings call sites hand them, so a typo in
 * one layer ("wal"/"comit") silently forks a new lane in the Perfetto
 * view and falls out of every aggregation keyed on (cat, name) — the
 * phase breakdown, the critical-path blame table, trace_dump's
 * reconciliation. This header is the closed vocabulary: every literal
 * (cat, name) pair passed to Tracer::beginSpan / Tracer::recordSpan
 * and every literal Tracer::phase name in the tree must appear here.
 * bssd-lint rule `xcheck-span-name` cross-checks the call sites
 * against these tables the same way `xcheck-tracepoint` checks
 * tracepoint names, so adding a span name means adding it here first.
 *
 * Names minted at runtime (the NVMe frontend's op-named spans, the
 * "tp" instants fed from sim/tracepoint.hh) are outside this table by
 * design: the lint rule only checks string literals.
 *
 * Both tables ascend strictly (cat, then name; plain lexicographic for
 * phases), so they are sorted and duplicate-free; the static_asserts
 * below enforce that at build time.
 */

#ifndef BSSD_SIM_SPAN_NAMES_HH
#define BSSD_SIM_SPAN_NAMES_HH

#include <cstddef>
#include <span>
#include <string_view>

namespace bssd::sim
{

/** One canonical span identity: category (lane) and operation name. */
struct SpanName
{
    const char *cat;
    const char *name;
};

/** Every literal (cat, name) span pair in the tree, sorted. */
inline constexpr SpanName kSpanNames[] = {
    {"ba", "flush"},
    {"ba", "mmioRead"},
    {"ba", "mmioSync"},
    {"ba", "mmioWrite"},
    {"ba", "pin"},
    {"ba", "readDma"},
    {"ba", "sync"},
    {"cluster", "copy"},
    {"cluster", "drain"},
    {"cluster", "rebalance"},
    {"engine", "round"},
    {"ftl", "gc"},
    {"ftl", "gc_step"},
    {"ftl", "read"},
    {"ftl", "write"},
    {"router", "completion"},
    {"router", "doorbell"},
    {"router", "get"},
    {"router", "hold"},
    {"router", "queue"},
    {"router", "set"},
    {"shard", "exec"},
    {"ssd", "blockRead"},
    {"ssd", "blockWrite"},
    {"ssd", "dram_hit"},
    {"ssd", "flush"},
    {"wal", "commit"},
    {"wal", "repl.ship"},
};

/** Number of canonical span identities. */
inline constexpr std::size_t spanNameCount =
    sizeof(kSpanNames) / sizeof(kSpanNames[0]);

/** Every literal Tracer::phase name in the tree, sorted. */
inline constexpr const char *kPhaseNames[] = {
    "api",
    "buffer",
    "chan_xfer",
    "completion",
    "destage",
    "dma",
    "doorbell",
    "erase",
    "exec",
    "frontend",
    "fwcpu",
    "gc_stall",
    "internal",
    "media",
    "mmio",
    "relocate",
    "store",
    "verify",
    "wait",
    "wc_drain",
    "wc_flush",
    "xfer",
};

/** Number of canonical phase names. */
inline constexpr std::size_t phaseNameCount =
    sizeof(kPhaseNames) / sizeof(kPhaseNames[0]);

/** True when @p table ascends strictly by (cat, name). */
constexpr bool
spanTableSorted(std::span<const SpanName> table)
{
    for (std::size_t i = 1; i < table.size(); ++i) {
        const std::string_view prevCat = table[i - 1].cat;
        const std::string_view cat = table[i].cat;
        if (prevCat > cat ||
            (prevCat == cat &&
             std::string_view(table[i - 1].name) >= table[i].name))
            return false;
    }
    return true;
}

/** True when @p table ascends strictly. */
constexpr bool
phaseTableSorted(std::span<const char *const> table)
{
    for (std::size_t i = 1; i < table.size(); ++i) {
        if (std::string_view(table[i - 1]) >= table[i])
            return false;
    }
    return true;
}

static_assert(spanTableSorted(kSpanNames),
              "kSpanNames must ascend strictly by (cat, name)");
static_assert(phaseTableSorted(kPhaseNames),
              "kPhaseNames must ascend strictly");

/** True when (cat, name) is a canonical span identity. */
constexpr bool
spanNameKnown(std::string_view cat, std::string_view name)
{
    for (std::size_t i = 0; i < spanNameCount; ++i) {
        if (cat == kSpanNames[i].cat && name == kSpanNames[i].name)
            return true;
    }
    return false;
}

/** True when @p name is a canonical phase name. */
constexpr bool
phaseNameKnown(std::string_view name)
{
    for (std::size_t i = 0; i < phaseNameCount; ++i) {
        if (name == kPhaseNames[i])
            return true;
    }
    return false;
}

} // namespace bssd::sim

#endif // BSSD_SIM_SPAN_NAMES_HH

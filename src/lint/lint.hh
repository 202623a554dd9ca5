/**
 * @file
 * bssd-lint driver: file discovery, suppression handling and report
 * formatting (DESIGN.md section 11).
 *
 * The driver walks the requested paths, lexes every .cc/.hh file, runs
 * the two-pass rule engine (lint/rules.hh) and applies suppression
 * markers:
 *
 *     // bssd-lint: allow(rule-id) justification...
 *     // bssd-lint: allow(rule-a, rule-b) justification...
 *
 * A marker suppresses matching violations on its own line, or - when
 * the comment stands alone - on the next line that holds code. Markers
 * that suppress nothing, or name an unknown rule, are themselves
 * violations: stale suppressions must not accumulate.
 *
 * Output is deterministic by construction (sorted files, sorted
 * violations, root-relative paths, no timestamps), so `--json` reports
 * are byte-stable across reruns - asserted by tests/lint.
 */

#ifndef BSSD_LINT_LINT_HH
#define BSSD_LINT_LINT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "lint/rules.hh"

namespace bssd::lint
{

struct LintOptions
{
    /** Repo root; scanned paths and reports are relative to it. */
    std::string root = ".";

    /** Files or directories to scan (root-relative or absolute). */
    std::vector<std::string> paths;
};

struct LintResult
{
    /** Unsuppressed violations, sorted by (file, line, rule). */
    std::vector<Violation> violations;

    /** Root-relative paths of every scanned file, sorted. */
    std::vector<std::string> files;

    /** Canonical tracepoint table as the cross-checks saw it. */
    std::vector<std::string> tracepointNames;

    /** Unreadable paths, and canonical tables (tracepoint, span) that
     *  are missing under the root or parse empty. */
    std::vector<std::string> errors;

    bool clean() const { return violations.empty() && errors.empty(); }
};

/** Run the analyzer; never throws on bad input paths (see errors). */
LintResult runLint(const LintOptions &opts);

/** Human-readable report. */
void writeText(const LintResult &result, std::ostream &os);

/** Machine-readable report; byte-stable for identical inputs. */
void writeJson(const LintResult &result, std::ostream &os);

} // namespace bssd::lint

#endif // BSSD_LINT_LINT_HH

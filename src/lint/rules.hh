/**
 * @file
 * bssd-lint rule engine (DESIGN.md section 11).
 *
 * Rules run over lexed files in two passes. Pass A (collect*, parse*)
 * builds project-wide tables: the canonical tracepoint and span tables
 * parsed out of src/sim/tracepoint.hh and src/sim/span_names.hh, the
 * set of identifiers declared with unordered-container type anywhere
 * in the scan set, and every dotted metric-path literal with its
 * registration site. Pass B (runRules) emits violations per file
 * against those tables. Suppressions are applied in lint.cc, not
 * here, so the engine stays a pure function of the sources.
 */

#ifndef BSSD_LINT_RULES_HH
#define BSSD_LINT_RULES_HH

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/lexer.hh"

namespace bssd::lint
{

/** One finding: where, which rule, what, and how to fix it. */
struct Violation
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
    std::string hint;

    bool
    operator<(const Violation &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        if (rule != o.rule)
            return rule < o.rule;
        return message < o.message;
    }
};

/** Rule-catalog row (docs, --list-rules, suppression validation). */
struct RuleInfo
{
    std::string id;
    std::string summary;
    std::string hint;
};

/** All rules, id-sorted. */
const std::vector<RuleInfo> &ruleCatalog();

/** True when @p id names a catalogued rule. */
bool knownRule(const std::string &id);

/** A metric-path registration site found in pass A. */
struct MetricSite
{
    std::string file;
    int line = 0;
    int funcId = 0;
    /** Object the add*() call is made on ("reg" in reg.addCounter).
     *  Same-function duplicates only count against the same receiver:
     *  registering one path on two different registries is legal. */
    std::string receiver;
    /** Concatenated literal text ("a.b" or ".suffix" fragments). */
    std::string literal;
    /** True when the path is one complete literal (no prefix expr). */
    bool fullPath = false;
};

/** Project-wide state shared by every per-file rule run. */
struct ProjectTables
{
    /**
     * Identifiers declared with unordered_{map,set} type, keyed by
     * name, mapped to the path stems ("src/nand/nand_flash") that
     * declare them. A loop in foo.cc is only matched against members
     * declared in foo.cc/foo.hh, so an ordered `blocks_` in one
     * subsystem does not inherit another subsystem's hazard.
     */
    std::map<std::string, std::set<std::string>> unorderedMembers;

    /** Canonical tracepoint names, table order (tpName strings);
     *  empty when src/sim/tracepoint.hh could not be parsed. */
    std::vector<std::string> tracepointNames;

    /** Every metric-path literal, in discovery order. */
    std::vector<MetricSite> metricSites;

    /** Canonical (cat, name) span pairs, table order, parsed from
     *  src/sim/span_names.hh (kSpanNames). */
    std::vector<std::pair<std::string, std::string>> spanNames;
    /** Canonical phase names, table order (kPhaseNames). */
    std::vector<std::string> phaseNames;
};

/** Pass A: fold @p file's declarations into the shared tables. */
void collectFileTables(const LexedFile &file, ProjectTables &tables);

/** Parse the canonical table out of src/sim/tracepoint.hh. */
void parseTracepointTable(const LexedFile &file, ProjectTables &tables);

/** Parse the span/phase vocabulary out of src/sim/span_names.hh. */
void parseSpanNameTable(const LexedFile &file, ProjectTables &tables);

/** Pass B: every unsuppressed finding for @p file. */
std::vector<Violation> runRules(const LexedFile &file,
                                const ProjectTables &tables);

} // namespace bssd::lint

#endif // BSSD_LINT_RULES_HH

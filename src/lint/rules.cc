#include "lint/rules.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "sim/tracepoint.hh"

namespace bssd::lint
{

namespace
{

// ---------------------------------------------------------------------
// Rule catalog.

const std::vector<RuleInfo> kCatalog = {
    {"det-static-local",
     "mutable function-local static (hidden cross-run state)",
     "hoist the state into the owning object so it resets with the rig"},
    {"det-unordered-iter",
     "loop over an unordered container (iteration order can reach "
     "output)",
     "drain the keys into a sorted vector first, or use std::map/set"},
    {"det-unordered-member",
     "unordered container declaration (iteration-order hazard)",
     "use an ordered container, or suppress with a justification that "
     "its iteration order never reaches recovery/snapshot/report "
     "output"},
    {"det-wallclock",
     "wall-clock or ambient-randomness source in deterministic code",
     "derive timing from sim ticks; wall-clock measurement belongs in "
     "bench/support/stopwatch.hh (the single allowlisted shim)"},
    {"hyg-include-guard",
     "include guard does not match the BSSD_<PATH>_HH convention", ""},
    {"hyg-ticks-literal",
     "raw integer literal mixed into Tick arithmetic",
     "spell durations with nsOf/usOf/msOf/sOf or a named constant "
     "from sim/ticks.hh"},
    {"hyg-using-namespace",
     "using-directive in a header leaks into every includer",
     "qualify names explicitly in headers"},
    {"lint-suppression",
     "suppression comment problem (unknown rule or nothing to "
     "suppress)",
     "remove the stale // bssd-lint: allow(...) marker"},
    {"xcheck-metric-path",
     "metric path literal violates the a.b.c grammar or duplicates "
     "another registration",
     "paths are dot-separated [a-z0-9_] segments, unique per registry"},
    {"xcheck-span-name",
     "span or phase name literal is not in the canonical vocabulary",
     "add the (cat, name) pair to kSpanNames (or the phase to "
     "kPhaseNames) in src/sim/span_names.hh, or fix the typo"},
    {"xcheck-tracepoint",
     "string literal looks like a tracepoint name but is not in the "
     "canonical table",
     "use a name returned by tpName() in src/sim/tracepoint.hh"},
};

// ---------------------------------------------------------------------
// Scope tracking: classify every brace so rules can tell function
// bodies from namespace/class bodies and group statements by
// enclosing function.

struct ScopeInfo
{
    /** Per token: inside a function or statement body. */
    std::vector<bool> inBlock;
    /** Enclosing-function id per token (0 = not inside a function). */
    std::vector<int> funcId;
};

ScopeInfo
buildScopes(const LexedFile &f)
{
    ScopeInfo info;
    info.inBlock.resize(f.tokens.size(), false);
    info.funcId.resize(f.tokens.size(), 0);

    struct Frame
    {
        bool block;
        int funcId;
    };
    std::vector<Frame> stack{{false, 0}};
    int nextFuncId = 0;
    std::size_t stmtStart = 0; // first token of the current "prefix"

    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        info.inBlock[i] = stack.back().block;
        info.funcId[i] = stack.back().funcId;

        if (t.kind != TokKind::punct) {
            continue;
        }
        if (t.text == ";") {
            stmtStart = i + 1;
        } else if (t.text == "{") {
            // A brace after `)` always opens a body; otherwise a
            // namespace/class/enum head makes it a declaration scope.
            bool block = true;
            bool prevParen =
                i > 0 && f.tokens[i - 1].kind == TokKind::punct &&
                f.tokens[i - 1].text == ")";
            for (std::size_t j = stmtStart; !prevParen && j < i; ++j) {
                const Token &p = f.tokens[j];
                if (p.kind == TokKind::ident &&
                    (p.text == "namespace" || p.text == "class" ||
                     p.text == "struct" || p.text == "union" ||
                     p.text == "enum")) {
                    block = false;
                    break;
                }
            }
            int fid = stack.back().funcId;
            if (block && !stack.back().block)
                fid = ++nextFuncId;
            stack.push_back({block, fid});
            stmtStart = i + 1;
        } else if (t.text == "}") {
            if (stack.size() > 1)
                stack.pop_back();
            stmtStart = i + 1;
        }
    }
    return info;
}

// ---------------------------------------------------------------------
// Small token helpers.

bool
isPunct(const Token &t, const char *s)
{
    return t.kind == TokKind::punct && t.text == s;
}

bool
isIdent(const Token &t, const char *s)
{
    return t.kind == TokKind::ident && t.text == s;
}

/** Angle-bracket depth delta contributed by one punctuation token. */
int
angleDelta(const Token &t)
{
    if (t.kind != TokKind::punct)
        return 0;
    int d = 0;
    for (char c : t.text) {
        if (c == '<')
            ++d;
        else if (c == '>')
            --d;
    }
    return d;
}

/**
 * Integer value of a number token, or -1 when it is not a plain
 * integer literal (floats, exponents, unparsable).
 */
std::int64_t
intLiteralValue(const Token &t)
{
    if (t.kind != TokKind::number)
        return -1;
    std::string s;
    for (char c : t.text)
        if (c != '\'')
            s += c;
    bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
    if (!hex) {
        for (char c : s) {
            if (c == '.' || c == 'e' || c == 'E' || c == 'p' || c == 'P')
                return -1;
        }
    }
    // Strip integer suffixes (u, l, ll, z combinations).
    while (!s.empty()) {
        char c = s.back();
        if (c == 'u' || c == 'U' || c == 'l' || c == 'L' || c == 'z' ||
            c == 'Z')
            s.pop_back();
        else
            break;
    }
    if (s.empty())
        return -1;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end == nullptr || *end != '\0')
        return -1;
    return static_cast<std::int64_t>(v & 0x7fffffffffffffffULL);
}

bool
lowerSegment(const std::string &s, std::size_t b, std::size_t e)
{
    if (b >= e)
        return false;
    for (std::size_t i = b; i < e; ++i) {
        char c = s[i];
        bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_';
        if (!ok)
            return false;
    }
    return s[b] != '_';
}

/** Full metric path: `seg(.seg)+`, segments [a-z0-9_], >= 2 segments. */
bool
validFullMetricPath(const std::string &s)
{
    std::size_t start = 0;
    int segs = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == '.') {
            if (!lowerSegment(s, start, i))
                return false;
            ++segs;
            start = i + 1;
        }
    }
    return segs >= 2;
}

/** Suffix fragment: `(.seg)+` with a leading dot. */
bool
validMetricFragment(const std::string &s)
{
    if (s.empty() || s[0] != '.')
        return false;
    std::size_t start = 1;
    for (std::size_t i = 1; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == '.') {
            if (!lowerSegment(s, start, i))
                return false;
            start = i + 1;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Shared scanners (used by both pass A and pass B).

struct UnorderedDecl
{
    int line = 0;
    std::string name; // empty when the declarator has no name
    std::string container;
};

std::vector<UnorderedDecl>
findUnorderedDecls(const LexedFile &f)
{
    std::vector<UnorderedDecl> out;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "unordered_map") &&
            !isIdent(toks[i], "unordered_set"))
            continue;
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "<"))
            continue; // bare mention (e.g. in a comment-free doc string)
        UnorderedDecl d;
        d.line = toks[i].line;
        d.container = toks[i].text;
        int depth = 0;
        std::size_t j = i + 1;
        for (; j < toks.size(); ++j) {
            depth += angleDelta(toks[j]);
            if (depth <= 0) {
                ++j;
                break;
            }
        }
        // Skip cv/ref/pointer decorations before the declarator name.
        while (j < toks.size() &&
               (isIdent(toks[j], "const") || isPunct(toks[j], "&") ||
                isPunct(toks[j], "*")))
            ++j;
        if (j + 1 < toks.size() && toks[j].kind == TokKind::ident) {
            const Token &after = toks[j + 1];
            if (isPunct(after, ";") || isPunct(after, "=") ||
                isPunct(after, "{") || isPunct(after, ",") ||
                isPunct(after, ")"))
                d.name = toks[j].text;
        }
        out.push_back(d);
    }
    return out;
}

bool
isMetricAdder(const std::string &s)
{
    return s == "addCounter" || s == "addHistogram" || s == "addGauge";
}

std::vector<MetricSite>
findMetricSites(const LexedFile &f, const ScopeInfo &scopes)
{
    std::vector<MetricSite> out;
    const auto &toks = f.tokens;
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::ident || !isMetricAdder(toks[i].text))
            continue;
        // Call sites only: `reg.addCounter(...)` / `reg->addCounter(`.
        if (!isPunct(toks[i - 1], ".") && !isPunct(toks[i - 1], "->"))
            continue;
        if (!isPunct(toks[i + 1], "("))
            continue;
        // First argument: tokens up to a top-level ',' or ')'.
        int depth = 0;
        std::vector<const Token *> arg;
        bool sawPlus = false;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (isPunct(t, "(") || isPunct(t, "[") || isPunct(t, "{")) {
                ++depth;
                if (depth == 1)
                    continue;
            } else if (isPunct(t, ")") || isPunct(t, "]") ||
                       isPunct(t, "}")) {
                --depth;
                if (depth == 0)
                    break;
            } else if (depth == 1 && isPunct(t, ",")) {
                break;
            }
            if (depth >= 1) {
                if (isPunct(t, "+"))
                    sawPlus = true;
                arg.push_back(&t);
            }
        }
        std::vector<const Token *> strs;
        for (const Token *t : arg)
            if (t->kind == TokKind::str)
                strs.push_back(t);
        if (strs.empty())
            continue; // dynamic path; nothing checkable statically
        MetricSite site;
        site.file = f.path;
        site.line = toks[i].line;
        site.funcId = scopes.funcId[i];
        if (i >= 2 && toks[i - 2].kind == TokKind::ident)
            site.receiver = toks[i - 2].text;
        for (const Token *t : strs)
            site.literal += t->text;
        site.fullPath = !sawPlus && strs.size() == 1 &&
                        !strs[0]->text.empty() && strs[0]->text[0] != '.';
        out.push_back(site);
    }
    return out;
}

/** Path minus extension: "src/ftl/ftl.cc" -> "src/ftl/ftl". */
std::string
pathStem(const std::string &path)
{
    std::size_t dot = path.rfind('.');
    std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path;
    return path.substr(0, dot);
}

} // namespace

// ---------------------------------------------------------------------
// Public surface.

const std::vector<RuleInfo> &
ruleCatalog()
{
    return kCatalog;
}

bool
knownRule(const std::string &id)
{
    for (const auto &r : kCatalog)
        if (r.id == id)
            return true;
    return false;
}

void
collectFileTables(const LexedFile &file, ProjectTables &tables)
{
    for (const auto &d : findUnorderedDecls(file))
        if (!d.name.empty())
            tables.unorderedMembers[d.name].insert(pathStem(file.path));

    ScopeInfo scopes = buildScopes(file);
    for (auto &site : findMetricSites(file, scopes))
        tables.metricSites.push_back(site);
}

void
parseTracepointTable(const LexedFile &file, ProjectTables &tables)
{
    const auto &toks = file.tokens;

    // Canonical names: the string literals returned by tpName().
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "tpName"))
            continue;
        std::size_t j = i;
        while (j < toks.size() && !isPunct(toks[j], "{"))
            ++j;
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (isPunct(toks[j], "{")) {
                ++depth;
            } else if (isPunct(toks[j], "}")) {
                if (--depth == 0)
                    break;
            } else if (toks[j].kind == TokKind::str &&
                       toks[j].text.find('.') != std::string::npos) {
                tables.tracepointNames.push_back(toks[j].text);
            }
        }
        if (!tables.tracepointNames.empty())
            break;
    }
}

void
parseSpanNameTable(const LexedFile &file, ProjectTables &tables)
{
    const auto &toks = file.tokens;
    bool sawSpans = false;
    bool sawPhases = false;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!sawSpans && isIdent(toks[i], "kSpanNames")) {
            // The array definition: `{ {"cat", "name"}, ... }`. Only
            // the first occurrence is the table; later mentions are
            // sizeof/lookup code.
            sawSpans = true;
            std::size_t j = i;
            while (j < toks.size() && !isPunct(toks[j], "{"))
                ++j;
            int depth = 0;
            for (; j < toks.size(); ++j) {
                if (isPunct(toks[j], "{")) {
                    ++depth;
                } else if (isPunct(toks[j], "}")) {
                    if (--depth == 0)
                        break;
                } else if (depth == 2 && toks[j].kind == TokKind::str &&
                           j + 2 < toks.size() &&
                           isPunct(toks[j + 1], ",") &&
                           toks[j + 2].kind == TokKind::str) {
                    tables.spanNames.emplace_back(toks[j].text,
                                                  toks[j + 2].text);
                    j += 2;
                }
            }
        } else if (!sawPhases && isIdent(toks[i], "kPhaseNames")) {
            sawPhases = true;
            std::size_t j = i;
            while (j < toks.size() && !isPunct(toks[j], "{"))
                ++j;
            int depth = 0;
            for (; j < toks.size(); ++j) {
                if (isPunct(toks[j], "{")) {
                    ++depth;
                } else if (isPunct(toks[j], "}")) {
                    if (--depth == 0)
                        break;
                } else if (depth == 1 &&
                           toks[j].kind == TokKind::str) {
                    tables.phaseNames.push_back(toks[j].text);
                }
            }
        }
    }
}

std::vector<Violation>
runRules(const LexedFile &f, const ProjectTables &tables)
{
    std::vector<Violation> out;
    const auto &toks = f.tokens;
    ScopeInfo scopes = buildScopes(f);

    auto add = [&](const std::string &rule, int line,
                   const std::string &message, std::string hint = "") {
        if (hint.empty()) {
            for (const auto &r : kCatalog)
                if (r.id == rule)
                    hint = r.hint;
        }
        out.push_back({f.path, line, rule, message, hint});
    };

    const bool isTicksHeader = f.path == "src/sim/ticks.hh";
    const bool wallclockAllowlisted =
        f.path == "bench/support/stopwatch.hh";

    // -----------------------------------------------------------------
    // det-wallclock: ambient time / randomness sources.
    if (!wallclockAllowlisted) {
        static const std::set<std::string> kBannedHeaders = {
            "chrono", "ctime", "time.h", "sys/time.h", "sys/times.h"};
        for (const auto &inc : f.includes)
            if (kBannedHeaders.count(inc.header))
                add("det-wallclock", inc.line,
                    "#include <" + inc.header +
                        "> pulls a wall-clock source into deterministic "
                        "code");
        static const std::set<std::string> kBannedIdents = {
            "chrono",         "steady_clock", "system_clock",
            "high_resolution_clock", "random_device", "gettimeofday",
            "clock_gettime",  "timespec_get"};
        static const std::set<std::string> kBannedCalls = {
            "rand", "srand", "time", "clock"};
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokKind::ident)
                continue;
            bool member =
                i > 0 && (isPunct(toks[i - 1], ".") ||
                          isPunct(toks[i - 1], "->"));
            if (kBannedIdents.count(t.text) && !member) {
                add("det-wallclock", t.line,
                    "use of '" + t.text +
                        "' (nondeterministic ambient source)");
            } else if (kBannedCalls.count(t.text) && !member &&
                       i + 1 < toks.size() && isPunct(toks[i + 1], "(")) {
                add("det-wallclock", t.line,
                    "call to '" + t.text +
                        "()' (nondeterministic ambient source)");
            }
        }
    }

    // -----------------------------------------------------------------
    // det-unordered-member: every unordered container declaration is a
    // reviewed decision (justified suppression or an ordered rewrite).
    for (const auto &d : findUnorderedDecls(f)) {
        std::string what = d.name.empty() ? "value" : "'" + d.name + "'";
        add("det-unordered-member", d.line,
            "std::" + d.container + " declaration " + what +
                " has nondeterministic iteration order");
    }

    // -----------------------------------------------------------------
    // det-unordered-iter: loops over known-unordered members. Only
    // members declared by this file (or its .cc/.hh sibling) match:
    // private members cannot be iterated from elsewhere anyway, and
    // same-name members of other subsystems may be ordered types.
    auto unorderedHere = [&](const Token &t) {
        if (t.kind != TokKind::ident)
            return false;
        auto it = tables.unorderedMembers.find(t.text);
        return it != tables.unorderedMembers.end() &&
               it->second.count(pathStem(f.path)) > 0;
    };
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (isIdent(toks[i], "for") && isPunct(toks[i + 1], "(")) {
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                if (isPunct(toks[j], "(")) {
                    ++depth;
                } else if (isPunct(toks[j], ")")) {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (depth == 1 && isPunct(toks[j], ":") &&
                           colon == 0) {
                    colon = j;
                }
            }
            if (colon == 0 || close == 0)
                continue; // classic for loop (or unterminated)
            for (std::size_t j = colon + 1; j < close; ++j) {
                if (unorderedHere(toks[j])) {
                    add("det-unordered-iter", toks[i].line,
                        "range-for over unordered container '" +
                            toks[j].text + "'");
                    break;
                }
            }
        }
        // Iterator-style loops: member.begin() / member.cbegin().
        if (unorderedHere(toks[i]) && i + 2 < toks.size() &&
            (isPunct(toks[i + 1], ".") || isPunct(toks[i + 1], "->")) &&
            (isIdent(toks[i + 2], "begin") ||
             isIdent(toks[i + 2], "cbegin") ||
             isIdent(toks[i + 2], "rbegin"))) {
            add("det-unordered-iter", toks[i].line,
                "iterator walk over unordered container '" + toks[i].text +
                    "'");
        }
    }

    // -----------------------------------------------------------------
    // det-static-local: `static` in a function body that is not
    // const/constexpr is hidden mutable cross-run state.
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "static") || !scopes.inBlock[i])
            continue;
        bool immutable = false;
        for (std::size_t j = i + 1; j < std::min(i + 4, toks.size());
             ++j) {
            if (isIdent(toks[j], "const") ||
                isIdent(toks[j], "constexpr") ||
                isIdent(toks[j], "consteval"))
                immutable = true;
        }
        if (!immutable)
            add("det-static-local", toks[i].line,
                "mutable function-local static");
    }

    // -----------------------------------------------------------------
    // xcheck-tracepoint: literals against the canonical table.
    if (!tables.tracepointNames.empty()) {
        const std::set<std::string> names(tables.tracepointNames.begin(),
                                          tables.tracepointNames.end());
        std::set<std::string> nsSet; // the names' layer prefixes
        for (const auto &name : names)
            nsSet.insert(name.substr(0, name.find('.')));

        // Scope: literals passed to the tracer's instant()/
        // tracepointHit() calls, plus every tracepoint-shaped literal
        // inside the fault rigs and the crash campaign - the places
        // where a typo would silently desynchronize the namespace.
        // Span/resource/metric display names elsewhere may share the
        // layer prefixes without being tracepoints.
        bool wholeFile = f.path.rfind("tests/fault/", 0) == 0 ||
                         f.path.rfind("tests/support/", 0) == 0 ||
                         f.path == "tools/crash_campaign.cc";
        std::vector<bool> inScope(toks.size(), wholeFile);
        if (!wholeFile) {
            for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
                if (!(isIdent(toks[i], "instant") ||
                      isIdent(toks[i], "tracepointHit")) ||
                    !isPunct(toks[i + 1], "("))
                    continue;
                int depth = 0;
                for (std::size_t j = i + 1; j < toks.size(); ++j) {
                    if (isPunct(toks[j], "("))
                        ++depth;
                    else if (isPunct(toks[j], ")") && --depth == 0)
                        break;
                    else if (toks[j].kind == TokKind::str)
                        inScope[j] = true;
                }
            }
        }
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokKind::str || !inScope[i])
                continue;
            const std::string &s = t.text;
            if (!sim::tpNameWellFormed(s))
                continue; // not tracepoint-shaped (metric paths etc.)
            std::string ns = s.substr(0, s.find('.'));
            if (!nsSet.count(ns))
                continue; // some other dotted name space
            if (!names.count(s))
                add("xcheck-tracepoint", t.line,
                    "'" + s + "' is not a canonical tracepoint name");
        }
    }

    // -----------------------------------------------------------------
    // xcheck-span-name: span/phase literals against the canonical
    // vocabulary of src/sim/span_names.hh. Tests mint arbitrary spans
    // on purpose, so only product code (src, tools, bench) and the
    // rule's own fixtures are in scope.
    const bool spanScope = f.path.rfind("src/", 0) == 0 ||
                           f.path.rfind("tools/", 0) == 0 ||
                           f.path.rfind("bench/", 0) == 0 ||
                           f.path.rfind("tests/lint/fixtures/", 0) == 0;
    if (spanScope && !tables.spanNames.empty()) {
        std::set<std::pair<std::string, std::string>> spanSet(
            tables.spanNames.begin(), tables.spanNames.end());
        std::set<std::string> phaseSet(tables.phaseNames.begin(),
                                       tables.phaseNames.end());
        for (std::size_t i = 1; i + 4 < toks.size(); ++i) {
            // Member calls only (`t->beginSpan(` / `t.recordSpan(`):
            // declarations and forwarding wrappers carry no literals
            // anyway, but this keeps the match to real record sites.
            if (!isPunct(toks[i - 1], ".") && !isPunct(toks[i - 1], "->"))
                continue;
            const bool isSpan = isIdent(toks[i], "beginSpan") ||
                                isIdent(toks[i], "recordSpan");
            const bool isPhase = isIdent(toks[i], "phase");
            if ((!isSpan && !isPhase) || !isPunct(toks[i + 1], "("))
                continue;
            if (isSpan) {
                // Exact literal shape `("cat", "name", ...` — a
                // dynamic name (the NVMe frontend's op-named spans)
                // is outside the closed vocabulary by design.
                if (toks[i + 2].kind != TokKind::str ||
                    !isPunct(toks[i + 3], ",") ||
                    toks[i + 4].kind != TokKind::str)
                    continue;
                const std::string &cat = toks[i + 2].text;
                const std::string &name = toks[i + 4].text;
                if (!spanSet.count({cat, name})) {
                    add("xcheck-span-name", toks[i].line,
                        "'" + cat + "." + name +
                            "' is not a canonical span name");
                }
            } else if (toks[i + 2].kind == TokKind::str) {
                const std::string &name = toks[i + 2].text;
                if (!phaseSet.count(name)) {
                    add("xcheck-span-name", toks[i].line,
                        "'" + name +
                            "' is not a canonical phase name");
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // xcheck-metric-path: grammar plus duplicate registrations.
    {
        auto sites = findMetricSites(f, scopes);
        for (const auto &site : sites) {
            bool ok = site.fullPath
                          ? validFullMetricPath(site.literal)
                          : validMetricFragment(site.literal);
            if (!ok) {
                add("xcheck-metric-path", site.line,
                    "metric path literal '" + site.literal +
                        "' violates the a.b.c grammar");
                continue;
            }
            // Duplicate within the same function: same registry, panic
            // at run time. Duplicate full paths across src/tools files:
            // two components claiming one global name.
            for (const auto &other : tables.metricSites) {
                if (&other == &site)
                    continue;
                if (other.literal != site.literal)
                    continue;
                bool sameFunc = other.file == site.file &&
                                other.funcId == site.funcId &&
                                other.receiver == site.receiver &&
                                other.line != site.line;
                bool crossProduct =
                    site.fullPath && other.fullPath &&
                    other.file != site.file &&
                    (site.file.rfind("src/", 0) == 0 ||
                     site.file.rfind("tools/", 0) == 0) &&
                    (other.file.rfind("src/", 0) == 0 ||
                     other.file.rfind("tools/", 0) == 0);
                if (sameFunc || crossProduct) {
                    add("xcheck-metric-path", site.line,
                        "metric path literal '" + site.literal +
                            "' duplicates the registration at " +
                            other.file + ":" +
                            std::to_string(other.line));
                    break;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // hyg-include-guard.
    if (f.isHeader()) {
        std::string rel = f.path;
        if (rel.rfind("src/", 0) == 0)
            rel = rel.substr(4);
        if (rel.size() > 3 && rel.compare(rel.size() - 3, 3, ".hh") == 0)
            rel = rel.substr(0, rel.size() - 3);
        std::string expected = "BSSD_";
        for (char c : rel) {
            if (std::isalnum(static_cast<unsigned char>(c)))
                expected += static_cast<char>(
                    std::toupper(static_cast<unsigned char>(c)));
            else
                expected += '_';
        }
        expected += "_HH";

        std::string actual;
        int guardLine = 1;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (isPunct(toks[i], "#") && isIdent(toks[i + 1], "ifndef") &&
                toks[i + 2].kind == TokKind::ident) {
                actual = toks[i + 2].text;
                guardLine = toks[i + 2].line;
                break;
            }
        }
        if (actual.empty())
            add("hyg-include-guard", 1,
                "header has no include guard (expected " + expected + ")");
        else if (actual != expected)
            add("hyg-include-guard", guardLine,
                "include guard '" + actual + "' should be '" + expected +
                    "'");
    }

    // -----------------------------------------------------------------
    // hyg-using-namespace (headers only).
    if (f.isHeader()) {
        for (std::size_t i = 0; i + 1 < toks.size(); ++i)
            if (isIdent(toks[i], "using") &&
                isIdent(toks[i + 1], "namespace"))
                add("hyg-using-namespace", toks[i].line,
                    "using-directive in a header");
    }

    // -----------------------------------------------------------------
    // hyg-ticks-literal.
    if (!isTicksHeader) {
        // Identifiers declared with Tick type in this file.
        std::set<std::string> tickVars;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (!isIdent(toks[i], "Tick"))
                continue;
            if (toks[i + 1].kind != TokKind::ident)
                continue;
            const Token &after = toks[i + 2];
            if (isPunct(after, "=") || isPunct(after, ";") ||
                isPunct(after, ",") || isPunct(after, ")") ||
                isPunct(after, "{"))
                tickVars.insert(toks[i + 1].text);
        }
        auto isArith = [](const Token &t) {
            return t.kind == TokKind::punct &&
                   (t.text == "+" || t.text == "-" || t.text == "*" ||
                    t.text == "/");
        };
        auto flaggableLiteral = [](const Token &t) {
            std::int64_t v = intLiteralValue(t);
            return v > 1;
        };
        auto isTickExprEnd = [&](std::size_t i) {
            // `<var>` with Tick type, or a `now()` call.
            if (toks[i].kind == TokKind::ident &&
                tickVars.count(toks[i].text))
                return true;
            return i >= 2 && isPunct(toks[i], ")") &&
                   isPunct(toks[i - 1], "(") &&
                   isIdent(toks[i - 2], "now");
        };
        for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
            if (!isArith(toks[i]))
                continue;
            // tick-expr OP literal
            if (isTickExprEnd(i - 1) && flaggableLiteral(toks[i + 1]))
                add("hyg-ticks-literal", toks[i].line,
                    "raw integer literal '" + toks[i + 1].text +
                        "' in Tick arithmetic");
            // literal OP tick-var
            else if (flaggableLiteral(toks[i - 1]) &&
                     toks[i + 1].kind == TokKind::ident &&
                     tickVars.count(toks[i + 1].text))
                add("hyg-ticks-literal", toks[i].line,
                    "raw integer literal '" + toks[i - 1].text +
                        "' in Tick arithmetic");
        }
    }

    // De-duplicate (rule, line, message) repeats.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Violation &a, const Violation &b) {
                              return a.file == b.file &&
                                     a.line == b.line &&
                                     a.rule == b.rule &&
                                     a.message == b.message;
                          }),
              out.end());
    return out;
}

} // namespace bssd::lint

#include "lint/rules.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace bssd::lint
{

namespace
{

// ---------------------------------------------------------------------
// Rule catalog.

const std::vector<RuleInfo> kCatalog = {
    {"det-cross-domain-schedule",
     "direct schedule through a queue accessor (cross-domain ordering "
     "hazard)",
     "cross-domain events must travel through Domain::post so the "
     "engine's (tick, sender, sequence) mailbox order applies; if the "
     "target really is the caller's own domain, suppress with that "
     "justification"},
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
    {"own-cross-domain-access",
     "dereference of state owned by another domain without a post() "
     "(cross-domain aliasing hazard)",
     "touch foreign-domain state from a callback posted into the "
     "owning domain (Domain::post), or suppress with a justification "
     "for why the access cannot race"},
    {"own-post-ctx-missing",
     "cross-domain post() drops the TraceContext (request stitching "
     "silently breaks)",
     "use the post(target, when, ctx, cb) overload; when the message "
     "has no single request identity (batch channels), suppress with "
     "that justification"},
    {"own-raw-handle-escape",
     "accessor hands out a mutable reference/pointer to domain-owned "
     "state",
     "return by value or const reference, route mutation through the "
     "owning domain, or suppress with a justification naming the "
     "same-domain callers"},
    {"xcheck-metric-path",
     "metric path literal violates the a.b.c grammar or duplicates "
     "another registration",
     "paths are dot-separated [a-z0-9_] segments, unique per registry"},
    {"xcheck-span-name",
     "span or phase name literal is not in the canonical vocabulary",
     "add the (cat, name) pair to kSpanNames (or the phase to "
     "kPhaseNames) in src/sim/span_names.hh, or fix the typo"},
    {"xcheck-span-table",
     "canonical span-name table is malformed",
     "src/sim/span_names.hh must keep kSpanNames and kPhaseNames "
     "sorted and duplicate-free"},
    {"xcheck-tracepoint",
     "string literal looks like a tracepoint name but is not in the "
     "canonical table",
     "use a name returned by tpName() in src/sim/tracepoint.hh"},
    {"xcheck-tracepoint-table",
     "canonical tracepoint table is malformed",
     "src/sim/tracepoint.hh must keep enum entries and tpName() "
     "strings in exact one-to-one correspondence"},
};

// ---------------------------------------------------------------------
// Scope tracking: classify every brace so rules can tell class bodies
// from function bodies and group statements by enclosing function.

enum class ScopeKind : unsigned char { top, ns, cls, blk };

bool isPunct(const Token &t, const char *s);
bool isIdent(const Token &t, const char *s);

struct ScopeInfo
{
    /** Innermost scope kind per token index. */
    std::vector<ScopeKind> kind;
    /** Enclosing-function id per token (0 = not inside a function). */
    std::vector<int> funcId;
    /** Innermost enclosing class/struct name per token ("" outside). */
    std::vector<std::string> clsName;
    /** funcId -> class the function belongs to ("" for free functions
     *  and bodies whose qualifier the scan cannot attribute). */
    std::map<int, std::string> funcClass;
};

ScopeInfo
buildScopes(const LexedFile &f)
{
    ScopeInfo info;
    info.kind.resize(f.tokens.size(), ScopeKind::top);
    info.funcId.resize(f.tokens.size(), 0);
    info.clsName.resize(f.tokens.size());

    struct Frame
    {
        ScopeKind kind;
        int funcId;
        std::string cls;
    };
    std::vector<Frame> stack{{ScopeKind::top, 0, ""}};
    int nextFuncId = 0;
    std::size_t stmtStart = 0; // first token of the current "prefix"

    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        info.kind[i] = stack.back().kind;
        info.funcId[i] = stack.back().funcId;
        info.clsName[i] = stack.back().cls;

        if (t.kind != TokKind::punct) {
            continue;
        }
        if (t.text == ";") {
            stmtStart = i + 1;
        } else if (t.text == "{") {
            ScopeKind kind = ScopeKind::blk;
            bool prevParen =
                i > 0 && f.tokens[i - 1].kind == TokKind::punct &&
                f.tokens[i - 1].text == ")";
            if (!prevParen) {
                for (std::size_t j = stmtStart; j < i; ++j) {
                    const Token &p = f.tokens[j];
                    if (p.kind != TokKind::ident)
                        continue;
                    if (p.text == "namespace") {
                        kind = ScopeKind::ns;
                        break;
                    }
                    if (p.text == "class" || p.text == "struct" ||
                        p.text == "union" || p.text == "enum") {
                        kind = ScopeKind::cls;
                        break;
                    }
                }
            }
            std::string cls = stack.back().cls;
            if (kind == ScopeKind::cls) {
                // Class name: last identifier of the head before the
                // base clause / enum base (a lone ':'), skipping the
                // keywords of `struct Cluster::Shard final : Base`.
                cls.clear();
                for (std::size_t j = stmtStart; j < i; ++j) {
                    const Token &p = f.tokens[j];
                    if (isPunct(p, ":"))
                        break;
                    if (p.kind != TokKind::ident)
                        continue;
                    if (p.text == "class" || p.text == "struct" ||
                        p.text == "union" || p.text == "enum" ||
                        p.text == "final" || p.text == "alignas")
                        continue;
                    cls = p.text;
                }
            }
            int fid = stack.back().funcId;
            if (kind == ScopeKind::blk &&
                stack.back().kind != ScopeKind::blk) {
                fid = ++nextFuncId;
                // Attribute the function to a class: the enclosing
                // class body, or the `Cls::method(` qualifier of an
                // out-of-line definition.
                std::string owner = stack.back().cls;
                for (std::size_t j = stmtStart; j + 3 < i; ++j) {
                    if (f.tokens[j].kind == TokKind::ident &&
                        isPunct(f.tokens[j + 1], "::") &&
                        f.tokens[j + 2].kind == TokKind::ident &&
                        isPunct(f.tokens[j + 3], "(")) {
                        owner = f.tokens[j].text;
                        break;
                    }
                }
                info.funcClass[fid] = owner;
            }
            stack.push_back({kind, fid, cls});
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

/** Canonical tracepoint grammar: ns.CamelOrLower, no underscores. */
bool
validTracepointName(const std::string &s)
{
    std::size_t dot = s.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= s.size())
        return false;
    if (s.find('.', dot + 1) != std::string::npos)
        return false;
    for (std::size_t i = 0; i < dot; ++i)
        if (s[i] < 'a' || s[i] > 'z')
            return false;
    for (std::size_t i = dot + 1; i < s.size(); ++i) {
        char c = s[i];
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9');
        if (!ok)
            return false;
    }
    char first = s[dot + 1];
    return (first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z');
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

/**
 * Data members of every class/struct in @p f. A member is an
 * identifier at class scope, outside parentheses (excludes parameter
 * lists), directly followed by `;`, `=` or a brace initializer — the
 * shapes of `T name_;`, `T name_ = x;` and `T name_{x};`. Method
 * names are followed by `(`, so they never match; `friend`, `using`
 * and `typedef` statements are skipped.
 */
std::map<std::string, ClassDecl>
findClassDecls(const LexedFile &f, const ScopeInfo &scopes)
{
    std::map<std::string, ClassDecl> out;
    const auto &toks = f.tokens;
    int parenDepth = 0;
    std::size_t stmtStart = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::punct) {
            if (t.text == "(")
                ++parenDepth;
            else if (t.text == ")")
                --parenDepth;
            else if (t.text == ";" || t.text == "{" || t.text == "}")
                stmtStart = i + 1;
            continue;
        }
        if (t.kind != TokKind::ident || parenDepth != 0 ||
            scopes.kind[i] != ScopeKind::cls ||
            scopes.clsName[i].empty())
            continue;
        if (i + 1 >= toks.size())
            continue;
        const Token &after = toks[i + 1];
        if (!isPunct(after, ";") && !isPunct(after, "=") &&
            !isPunct(after, "{"))
            continue;
        // Collect the declared type's identifier tokens and skip
        // non-declarations (friend/using/typedef, enum entries with
        // initializers have no type tokens and are harmless noise).
        MemberDecl m;
        m.name = t.text;
        m.line = t.line;
        bool skip = false;
        for (std::size_t j = stmtStart; j < i; ++j) {
            if (toks[j].kind != TokKind::ident)
                continue;
            if (toks[j].text == "friend" || toks[j].text == "using" ||
                toks[j].text == "typedef") {
                skip = true;
                break;
            }
            m.typeTokens.push_back(toks[j].text);
        }
        if (skip || m.typeTokens.empty())
            continue;
        ClassDecl &cls = out[scopes.clsName[i]];
        if (cls.name.empty()) {
            cls.name = scopes.clsName[i];
            cls.file = f.path;
            cls.line = t.line;
        }
        cls.members.emplace(m.name, std::move(m));
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

std::set<std::string>
ProjectTables::tracepointNamespaces() const
{
    std::set<std::string> out;
    for (const auto &name : tracepointNames) {
        std::size_t dot = name.find('.');
        if (dot != std::string::npos)
            out.insert(name.substr(0, dot));
    }
    return out;
}

bool
MemberDecl::isDomainHandle() const
{
    for (const auto &t : typeTokens)
        if (t == "Domain")
            return true;
    return false;
}

bool
ClassDecl::domainRooted() const
{
    for (const auto &[name, m] : members)
        if (m.isDomainHandle())
            return true;
    return false;
}

std::set<std::string>
ProjectTables::domainRootedClasses() const
{
    std::set<std::string> out;
    for (const auto &[name, c] : classes) {
        // Domain itself is the root of roots: its queue/outbox/seq
        // members ARE the per-domain state the engine hands to exactly
        // one thread per round.
        if (name == "Domain" || c.domainRooted())
            out.insert(name);
    }
    return out;
}

namespace
{

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

void
collectFileTables(const LexedFile &file, ProjectTables &tables)
{
    for (const auto &d : findUnorderedDecls(file))
        if (!d.name.empty())
            tables.unorderedMembers[d.name].insert(pathStem(file.path));

    ScopeInfo scopes = buildScopes(file);
    for (auto &site : findMetricSites(file, scopes))
        tables.metricSites.push_back(site);

    for (auto &[name, cls] : findClassDecls(file, scopes)) {
        ClassDecl &into = tables.classes[name];
        if (into.name.empty()) {
            into = std::move(cls);
        } else {
            for (auto &[mn, m] : cls.members)
                into.members.emplace(mn, std::move(m));
        }
    }
}

void
parseTracepointTable(const LexedFile &file, ProjectTables &tables)
{
    const auto &toks = file.tokens;

    // Enum entries: `enum class Tp ... { a, b, ..., count_ }`.
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!isIdent(toks[i], "enum") || !isIdent(toks[i + 1], "class") ||
            !isIdent(toks[i + 2], "Tp"))
            continue;
        std::size_t j = i + 3;
        while (j < toks.size() && !isPunct(toks[j], "{"))
            ++j;
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (isPunct(toks[j], "{")) {
                ++depth;
            } else if (isPunct(toks[j], "}")) {
                if (--depth == 0)
                    break;
            } else if (depth == 1 && toks[j].kind == TokKind::ident &&
                       j + 1 < toks.size() &&
                       (isPunct(toks[j + 1], ",") ||
                        isPunct(toks[j + 1], "}"))) {
                if (toks[j].text != "count_")
                    ++tables.tracepointEnumCount;
            }
        }
        break;
    }

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
        if (!tables.tracepointNames.empty()) {
            tables.tracepointTableLoaded = true;
            break;
        }
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
    if (!tables.spanNames.empty() && !tables.phaseNames.empty())
        tables.spanTableLoaded = true;
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

    const bool isTracepointHeader = f.path == "src/sim/tracepoint.hh";
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
    // det-cross-domain-schedule: `queue().schedule(...)` (or events(),
    // or scheduleIn) reaches through an accessor into a queue the
    // caller may not own. Direct member access (`queue_.schedule`) and
    // locally owned queues do not match; accessor calls are exactly
    // the shape cross-component code uses, and those must go through
    // Domain::post instead so parallel runs stay bit-identical.
    for (std::size_t i = 0; i + 5 < toks.size(); ++i) {
        if (!isIdent(toks[i], "queue") && !isIdent(toks[i], "events"))
            continue;
        if (!isPunct(toks[i + 1], "(") || !isPunct(toks[i + 2], ")"))
            continue;
        if (!isPunct(toks[i + 3], ".") && !isPunct(toks[i + 3], "->"))
            continue;
        if (!isIdent(toks[i + 4], "schedule") &&
            !isIdent(toks[i + 4], "scheduleIn"))
            continue;
        if (!isPunct(toks[i + 5], "("))
            continue;
        add("det-cross-domain-schedule", toks[i].line,
            "direct " + toks[i + 4].text + "() through the " +
                toks[i].text + "() accessor bypasses the deterministic "
                "cross-domain mailbox");
    }

    // -----------------------------------------------------------------
    // det-static-local: `static` in a function body that is not
    // const/constexpr is hidden mutable cross-run state.
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "static") ||
            scopes.kind[i] != ScopeKind::blk)
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
    // own-*: domain-ownership rules (DESIGN.md section 16), driven by
    // pass A's class table. Scope is product code plus the rule
    // fixtures — tests poke rig internals from the outside on purpose.
    // The mailbox mechanism itself (Domain / ParallelEngine) is the
    // one sanctioned place that touches foreign queues, so its own
    // files are exempt.
    const bool ownScope =
        (f.path.rfind("src/", 0) == 0 ||
         f.path.rfind("tools/", 0) == 0 ||
         f.path.rfind("bench/", 0) == 0 ||
         f.path.rfind("tests/lint/fixtures/", 0) == 0) &&
        f.path != "src/sim/domain.hh" &&
        f.path != "src/sim/engine.hh" && f.path != "src/sim/engine.cc";
    if (ownScope) {
        const std::set<std::string> rooted =
            tables.domainRootedClasses();
        auto classOf =
            [&](const std::string &name) -> const ClassDecl * {
            auto it = tables.classes.find(name);
            return it == tables.classes.end() ? nullptr : &it->second;
        };

        // Every `.post(` / `->post(` call: its argument extent (code
        // in a posted lambda runs in the target domain, so
        // dereferences there are ownership transfers, not aliasing)
        // and its top-level comma count (2 commas = the 3-argument
        // overload that drops the TraceContext).
        std::vector<bool> inPost(toks.size(), false);
        for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
            if (!isIdent(toks[i], "post"))
                continue;
            if (!isPunct(toks[i - 1], ".") &&
                !isPunct(toks[i - 1], "->"))
                continue;
            if (!isPunct(toks[i + 1], "("))
                continue;
            int depth = 0;
            int commas = 0;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                const Token &t = toks[j];
                if (isPunct(t, "(") || isPunct(t, "[") ||
                    isPunct(t, "{")) {
                    ++depth;
                } else if (isPunct(t, ")") || isPunct(t, "]") ||
                           isPunct(t, "}")) {
                    if (--depth == 0)
                        break;
                } else if (depth == 1 && isPunct(t, ",")) {
                    ++commas;
                }
                if (depth >= 1)
                    inPost[j] = true;
            }
            if (commas == 2)
                add("own-post-ctx-missing", toks[i].line,
                    "cross-domain post() without a TraceContext "
                    "loses the request identity in the target domain");
        }

        // own-raw-handle-escape: inline accessor of a domain-rooted
        // class returning a mutable ref/pointer to a member:
        //   `[&*] name ( ) [const] { return [*&] member [.get()] ; }`
        for (std::size_t i = 1; i + 6 < toks.size(); ++i) {
            if (!isPunct(toks[i], "&") && !isPunct(toks[i], "*"))
                continue;
            if (scopes.kind[i] != ScopeKind::cls)
                continue;
            const std::string &cls = scopes.clsName[i];
            if (cls.empty() || rooted.count(cls) == 0)
                continue;
            if (toks[i + 1].kind != TokKind::ident ||
                !isPunct(toks[i + 2], "(") ||
                !isPunct(toks[i + 3], ")"))
                continue;
            std::size_t j = i + 4;
            if (isIdent(toks[j], "const"))
                ++j;
            if (j + 2 >= toks.size() || !isPunct(toks[j], "{") ||
                !isIdent(toks[j + 1], "return"))
                continue;
            std::size_t m = j + 2;
            while (m < toks.size() &&
                   (isPunct(toks[m], "*") || isPunct(toks[m], "&")))
                ++m;
            if (m >= toks.size() || toks[m].kind != TokKind::ident)
                continue;
            const std::string &mem = toks[m].text;
            std::size_t semi = m + 1;
            if (semi + 3 < toks.size() && isPunct(toks[semi], ".") &&
                isIdent(toks[semi + 1], "get") &&
                isPunct(toks[semi + 2], "(") &&
                isPunct(toks[semi + 3], ")"))
                semi += 4;
            if (semi >= toks.size() || !isPunct(toks[semi], ";"))
                continue;
            const ClassDecl *decl = classOf(cls);
            if (decl == nullptr || decl->members.count(mem) == 0)
                continue;
            // Sanctioned escapes: const-returning accessors, and the
            // Domain handle itself (handing out the mailbox is how
            // callers post).
            bool sanctioned = false;
            for (std::size_t k = i; k-- > 0;) {
                const Token &p = toks[k];
                if (p.kind == TokKind::punct &&
                    (p.text == ";" || p.text == "{" || p.text == "}" ||
                     p.text == ":" || p.text == ")"))
                    break;
                if (p.kind == TokKind::ident &&
                    (p.text == "const" || p.text == "Domain"))
                    sanctioned = true;
            }
            if (sanctioned)
                continue;
            add("own-raw-handle-escape", toks[i + 1].line,
                "'" + toks[i + 1].text +
                    "()' returns a mutable handle to domain-owned "
                    "member '" +
                    mem + "' of '" + cls + "'");
        }

        // own-cross-domain-access: a method of domain-rooted class A
        // dereferencing a data member of domain-rooted class B
        // through a handle member, outside any post() — state that
        // belongs to another domain's thread.
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (toks[i].kind != TokKind::ident ||
                scopes.kind[i] != ScopeKind::blk || inPost[i])
                continue;
            // Bare or this-> receivers only: `x.handle_->...` reads
            // some other object's handle, which pass A cannot type.
            if (i > 0 &&
                (isPunct(toks[i - 1], ".") ||
                 isPunct(toks[i - 1], "->")) &&
                !(i >= 2 && isIdent(toks[i - 2], "this")))
                continue;
            auto fc = scopes.funcClass.find(scopes.funcId[i]);
            if (fc == scopes.funcClass.end() || fc->second.empty() ||
                rooted.count(fc->second) == 0)
                continue;
            const ClassDecl *owner = classOf(fc->second);
            if (owner == nullptr)
                continue;
            auto hIt = owner->members.find(toks[i].text);
            if (hIt == owner->members.end())
                continue;
            // Resolve the handle's pointee class from its declared
            // type ("std::vector<std::unique_ptr<Shard>>" -> Shard).
            std::string target;
            for (const auto &tt : hIt->second.typeTokens) {
                if (tt != fc->second && rooted.count(tt) > 0) {
                    target = tt;
                    break;
                }
            }
            if (target.empty())
                continue;
            std::size_t j = i + 1;
            if (isPunct(toks[j], "[")) {
                int depth = 0;
                for (; j < toks.size(); ++j) {
                    if (isPunct(toks[j], "[")) {
                        ++depth;
                    } else if (isPunct(toks[j], "]")) {
                        if (--depth == 0) {
                            ++j;
                            break;
                        }
                    }
                }
            }
            if (j + 2 >= toks.size() ||
                (!isPunct(toks[j], ".") && !isPunct(toks[j], "->")))
                continue;
            if (toks[j + 1].kind != TokKind::ident ||
                isPunct(toks[j + 2], "("))
                continue;
            const ClassDecl *tgt = classOf(target);
            if (tgt == nullptr)
                continue;
            auto mIt = tgt->members.find(toks[j + 1].text);
            // Reading another object's Domain handle is how you post
            // to it — sanctioned.
            if (mIt == tgt->members.end() ||
                mIt->second.isDomainHandle())
                continue;
            add("own-cross-domain-access", toks[i].line,
                "'" + toks[i].text + "." + toks[j + 1].text +
                    "' touches state owned by domain-rooted '" +
                    target + "' from '" + fc->second +
                    "' outside a post()");
        }
    }

    // -----------------------------------------------------------------
    // xcheck-tracepoint(-table): literals against the canonical table.
    if (isTracepointHeader && tables.tracepointTableLoaded) {
        std::set<std::string> seen;
        for (const auto &name : tables.tracepointNames) {
            if (!validTracepointName(name))
                add("xcheck-tracepoint-table", 1,
                    "tracepoint name '" + name +
                        "' violates the ns.name grammar");
            if (!seen.insert(name).second)
                add("xcheck-tracepoint-table", 1,
                    "duplicate tracepoint name '" + name + "'");
        }
        if (static_cast<int>(tables.tracepointNames.size()) !=
            tables.tracepointEnumCount)
            add("xcheck-tracepoint-table", 1,
                "tpName() returns " +
                    std::to_string(tables.tracepointNames.size()) +
                    " names but enum class Tp has " +
                    std::to_string(tables.tracepointEnumCount) +
                    " entries");
    }
    if (!isTracepointHeader && tables.tracepointTableLoaded) {
        const std::set<std::string> nsSet = tables.tracepointNamespaces();
        const std::set<std::string> names(tables.tracepointNames.begin(),
                                          tables.tracepointNames.end());

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
            if (!validTracepointName(s))
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
    // xcheck-span-name(-table): span/phase literals against the
    // canonical vocabulary of src/sim/span_names.hh. Tests mint
    // arbitrary spans on purpose, so only product code (src, tools,
    // bench) and the rule's own fixtures are in scope.
    const bool isSpanNameHeader = f.path == "src/sim/span_names.hh";
    if (isSpanNameHeader && tables.spanTableLoaded) {
        for (std::size_t i = 0; i < tables.spanNames.size(); ++i) {
            const auto &e = tables.spanNames[i];
            if (i > 0 && !(tables.spanNames[i - 1] < e)) {
                add("xcheck-span-table", 1,
                    "kSpanNames entry '" + e.first + "." + e.second +
                        "' is out of order or duplicated");
            }
        }
        for (std::size_t i = 1; i < tables.phaseNames.size(); ++i) {
            if (!(tables.phaseNames[i - 1] < tables.phaseNames[i])) {
                add("xcheck-span-table", 1,
                    "kPhaseNames entry '" + tables.phaseNames[i] +
                        "' is out of order or duplicated");
            }
        }
    }
    const bool spanScope = f.path.rfind("src/", 0) == 0 ||
                           f.path.rfind("tools/", 0) == 0 ||
                           f.path.rfind("bench/", 0) == 0 ||
                           f.path.rfind("tests/lint/fixtures/", 0) == 0;
    if (!isSpanNameHeader && spanScope && tables.spanTableLoaded) {
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

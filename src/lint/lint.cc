#include "lint/lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

namespace bssd::lint
{

namespace fs = std::filesystem;

namespace
{

/**
 * Fixture corpus: intentionally-bad sources for the lint test suite.
 * Skipped when recursing over `tests/`, scanned when named explicitly
 * (the CI self-test points the gate straight at a bad fixture).
 */
const char *const kFixtureDir = "tests/lint/fixtures";

bool
isSourceFile(const fs::path &p)
{
    auto ext = p.extension().string();
    return ext == ".cc" || ext == ".hh";
}

std::string
relToRoot(const fs::path &p, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::proximate(p, root, ec);
    if (ec || rel.empty())
        return p.generic_string();
    return rel.generic_string();
}

std::vector<std::string>
gatherFiles(const LintOptions &opts, std::vector<std::string> &errors)
{
    std::vector<std::string> out;
    const fs::path root = fs::absolute(opts.root);
    for (const auto &req : opts.paths) {
        fs::path p = fs::path(req).is_absolute() ? fs::path(req)
                                                 : root / req;
        std::error_code ec;
        if (fs::is_regular_file(p, ec)) {
            if (isSourceFile(p))
                out.push_back(relToRoot(p, root));
            continue;
        }
        if (!fs::is_directory(p, ec)) {
            errors.push_back("cannot read path: " + req);
            continue;
        }
        const bool insideFixtures =
            relToRoot(p, root).rfind(kFixtureDir, 0) == 0;
        for (fs::recursive_directory_iterator it(p, ec), end;
             !ec && it != end; it.increment(ec)) {
            if (it->is_directory()) {
                if (!insideFixtures &&
                    relToRoot(it->path(), root) == kFixtureDir)
                    it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && isSourceFile(it->path()))
                out.push_back(relToRoot(it->path(), root));
        }
        if (ec)
            errors.push_back("error walking " + req + ": " +
                             ec.message());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

// ---------------------------------------------------------------------
// Suppression markers.

struct Suppression
{
    int commentLine = 0;
    int targetLine = 0;
    std::vector<std::string> rules;
    std::vector<bool> used;
};

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    std::size_t e = s.find_last_not_of(" \t");
    return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

std::vector<Suppression>
findSuppressions(const LexedFile &f, std::vector<Violation> &out)
{
    std::vector<Suppression> sups;
    const std::string marker = "bssd-lint:";
    for (const auto &cm : f.comments) {
        // The marker must open the comment; prose that merely mentions
        // the syntax (like this very paragraph) is not a suppression.
        std::string lead = trim(cm.text);
        if (lead.rfind(marker, 0) != 0)
            continue;
        std::size_t at = 0;
        std::size_t open = lead.find("allow(", at);
        std::size_t close =
            open == std::string::npos ? std::string::npos
                                      : lead.find(')', open);
        if (open == std::string::npos || close == std::string::npos) {
            out.push_back({f.path, cm.line, "lint-suppression",
                           "malformed bssd-lint marker (expected "
                           "'bssd-lint: allow(rule-id)')",
                           ""});
            continue;
        }
        Suppression sup;
        sup.commentLine = cm.line;
        sup.targetLine =
            cm.ownLine ? f.nextCodeLine(cm.line + 1) : cm.line;
        std::string list = lead.substr(open + 6, close - open - 6);
        std::size_t start = 0;
        while (start <= list.size()) {
            std::size_t comma = list.find(',', start);
            std::string id = trim(list.substr(
                start, comma == std::string::npos ? std::string::npos
                                                  : comma - start));
            if (!id.empty()) {
                if (!knownRule(id)) {
                    out.push_back(
                        {f.path, cm.line, "lint-suppression",
                         "suppression names unknown rule '" + id + "'",
                         ""});
                } else {
                    sup.rules.push_back(id);
                    sup.used.push_back(false);
                }
            }
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        if (!sup.rules.empty())
            sups.push_back(sup);
    }
    return sups;
}

void
applySuppressions(const LexedFile &f, std::vector<Violation> &violations)
{
    std::vector<Violation> extra;
    std::vector<Suppression> sups = findSuppressions(f, extra);

    std::vector<Violation> kept;
    for (const auto &v : violations) {
        bool suppressed = false;
        for (auto &sup : sups) {
            if (sup.targetLine != v.line)
                continue;
            for (std::size_t i = 0; i < sup.rules.size(); ++i) {
                if (sup.rules[i] == v.rule) {
                    sup.used[i] = true;
                    suppressed = true;
                }
            }
        }
        if (!suppressed)
            kept.push_back(v);
    }
    for (const auto &sup : sups) {
        for (std::size_t i = 0; i < sup.rules.size(); ++i) {
            if (!sup.used[i])
                kept.push_back(
                    {f.path, sup.commentLine, "lint-suppression",
                     "suppression of '" + sup.rules[i] +
                         "' matches no violation",
                     "remove the stale // bssd-lint: allow(...) "
                     "marker"});
        }
    }
    for (const auto &v : extra)
        kept.push_back(v);
    violations = std::move(kept);
}

void
jsonEscape(const std::string &s, std::ostream &os)
{
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const char *hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
}

} // namespace

LintResult
runLint(const LintOptions &opts)
{
    LintResult result;
    result.files = gatherFiles(opts, result.errors);

    std::vector<LexedFile> lexed;
    lexed.reserve(result.files.size());
    const fs::path root = fs::absolute(opts.root);
    for (const auto &rel : result.files) {
        std::string content;
        if (!readFile(root / rel, content)) {
            result.errors.push_back("cannot read file: " + rel);
            continue;
        }
        lexed.push_back(lex(rel, content));
    }

    // The canonical tracepoint and span-name tables are always loaded
    // from the root, whether or not src/ is part of the scan set. A
    // table that is missing or parses empty would silently switch its
    // cross-check off, so it is an error.
    ProjectTables tables;
    auto load = [&](const std::string &rel, auto parse) {
        std::string content;
        if (readFile(root / rel, content))
            parse(lex(rel, content), tables);
    };
    load("src/sim/tracepoint.hh", parseTracepointTable);
    load("src/sim/span_names.hh", parseSpanNameTable);
    if (tables.tracepointNames.empty())
        result.errors.push_back("no tracepoint table (tpName) in " +
                                opts.root + "/src/sim/tracepoint.hh");
    if (tables.spanNames.empty() || tables.phaseNames.empty())
        result.errors.push_back(
            "no span table (kSpanNames, kPhaseNames) in " + opts.root +
            "/src/sim/span_names.hh");
    result.tracepointNames = tables.tracepointNames;

    for (const auto &f : lexed)
        collectFileTables(f, tables);

    for (const auto &f : lexed) {
        std::vector<Violation> v = runRules(f, tables);
        applySuppressions(f, v);
        result.violations.insert(result.violations.end(), v.begin(),
                                 v.end());
    }
    std::sort(result.violations.begin(), result.violations.end());
    return result;
}

void
writeText(const LintResult &result, std::ostream &os)
{
    for (const auto &e : result.errors)
        os << "bssd-lint: error: " << e << "\n";
    for (const auto &v : result.violations) {
        os << v.file << ":" << v.line << ": error: [" << v.rule << "] "
           << v.message << "\n";
        if (!v.hint.empty())
            os << "    hint: " << v.hint << "\n";
    }
    if (result.clean())
        os << "bssd-lint: clean (" << result.files.size()
           << " files scanned, " << result.tracepointNames.size()
           << " tracepoints validated)\n";
    else
        os << "bssd-lint: " << result.violations.size()
           << " violation(s), " << result.errors.size()
           << " error(s) in " << result.files.size()
           << " files scanned\n";
}

void
writeJson(const LintResult &result, std::ostream &os)
{
    os << "{\n";
    os << "  \"tool\": \"bssd_lint\",\n";
    os << "  \"version\": 1,\n";
    os << "  \"files_scanned\": " << result.files.size() << ",\n";

    os << "  \"tracepoints\": [";
    for (std::size_t i = 0; i < result.tracepointNames.size(); ++i) {
        os << (i ? ", " : "") << "\"";
        jsonEscape(result.tracepointNames[i], os);
        os << "\"";
    }
    os << "],\n";

    os << "  \"errors\": [";
    for (std::size_t i = 0; i < result.errors.size(); ++i) {
        os << (i ? ", " : "") << "\"";
        jsonEscape(result.errors[i], os);
        os << "\"";
    }
    os << "],\n";

    os << "  \"violations\": [";
    for (std::size_t i = 0; i < result.violations.size(); ++i) {
        const auto &v = result.violations[i];
        os << (i ? "," : "") << "\n    {\"file\": \"";
        jsonEscape(v.file, os);
        os << "\", \"line\": " << v.line << ", \"rule\": \"";
        jsonEscape(v.rule, os);
        os << "\", \"message\": \"";
        jsonEscape(v.message, os);
        os << "\", \"hint\": \"";
        jsonEscape(v.hint, os);
        os << "\"}";
    }
    os << (result.violations.empty() ? "" : "\n  ") << "],\n";

    std::map<std::string, int> byRule;
    for (const auto &v : result.violations)
        ++byRule[v.rule];
    os << "  \"summary\": {\"total\": " << result.violations.size()
       << ", \"by_rule\": {";
    bool first = true;
    for (const auto &[rule, count] : byRule) {
        os << (first ? "" : ", ") << "\"";
        jsonEscape(rule, os);
        os << "\": " << count;
        first = false;
    }
    os << "}}\n";
    os << "}\n";
}

} // namespace bssd::lint

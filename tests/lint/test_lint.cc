/**
 * @file
 * Tests for bssd-lint itself: the fixture corpus under
 * tests/lint/fixtures/ (one bad + one good file per rule), suppression
 * semantics, byte-stable --json output, the cross-check that the
 * tables the analyzer parses out of src/sim/tracepoint.hh and
 * src/sim/span_names.hh are the tables the runtime compiles in, and
 * the error when a root lacks them.
 *
 * BSSD_SOURCE_ROOT is injected by tests/CMakeLists.txt and points at
 * the repository root, so runLint() here sees exactly what the CI gate
 * sees.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include "lint/lint.hh"
#include "sim/span_names.hh"
#include "sim/tracepoint.hh"

using namespace bssd::lint;

namespace
{

constexpr const char *kRoot = BSSD_SOURCE_ROOT;
const std::string kFixtures = "tests/lint/fixtures/";

LintResult
lintPath(const std::string &relPath)
{
    LintOptions opts;
    opts.root = kRoot;
    opts.paths = {relPath};
    return runLint(opts);
}

/** Rules hit in @p result, as a set of ids. */
std::set<std::string>
rulesIn(const LintResult &result)
{
    std::set<std::string> out;
    for (const auto &v : result.violations)
        out.insert(v.rule);
    return out;
}

} // namespace

TEST(LintFixtures, EachBadFixtureTriggersExactlyItsRule)
{
    const std::map<std::string, std::string> expect = {
        {"bad_wallclock.cc", "det-wallclock"},
        {"bad_unordered_member.cc", "det-unordered-member"},
        {"bad_unordered_iter.cc", "det-unordered-iter"},
        {"bad_static_local.cc", "det-static-local"},
        {"bad_include_guard.hh", "hyg-include-guard"},
        {"bad_using_namespace.hh", "hyg-using-namespace"},
        {"bad_ticks_literal.cc", "hyg-ticks-literal"},
        {"bad_tracepoint.cc", "xcheck-tracepoint"},
        {"bad_span_name.cc", "xcheck-span-name"},
        {"bad_metric_path.cc", "xcheck-metric-path"},
        {"bad_suppression.cc", "lint-suppression"},
    };
    // Every catalogued rule has a bad fixture that shows it firing.
    std::set<std::string> covered;
    for (const auto &[file, rule] : expect)
        covered.insert(rule);
    for (const auto &info : ruleCatalog())
        EXPECT_TRUE(covered.count(info.id)) << info.id;
    for (const auto &[file, rule] : expect) {
        LintResult r = lintPath(kFixtures + file);
        EXPECT_TRUE(r.errors.empty()) << file;
        ASSERT_FALSE(r.violations.empty()) << file;
        // Exactly the expected rule fires: bad fixtures are built to
        // isolate one rule each (extra hazards are suppressed inline).
        EXPECT_EQ(rulesIn(r), std::set<std::string>{rule}) << file;
        for (const auto &v : r.violations) {
            EXPECT_EQ(v.file, kFixtures + file);
            EXPECT_GT(v.line, 0);
            EXPECT_FALSE(v.message.empty());
        }
    }
}

TEST(LintFixtures, GoodFixturesAreClean)
{
    // Every good_* file on disk, as CI's self-test loop runs them.
    std::size_t checked = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(kRoot) + "/" + kFixtures)) {
        const std::string file = entry.path().filename().string();
        if (file.rfind("good_", 0) != 0)
            continue;
        ++checked;
        LintResult r = lintPath(kFixtures + file);
        EXPECT_TRUE(r.clean()) << file << ": "
                               << (r.violations.empty()
                                       ? std::string("io error")
                                       : r.violations[0].message);
    }
    EXPECT_EQ(checked, ruleCatalog().size());
}

TEST(LintFixtures, SuppressionCasesAreViolationsThemselves)
{
    // bad_suppression.cc holds one unknown-rule marker and one marker
    // that matches nothing; both must surface as lint-suppression.
    LintResult r = lintPath(kFixtures + "bad_suppression.cc");
    ASSERT_EQ(r.violations.size(), 2u);
    EXPECT_NE(r.violations[0].message.find("unknown rule"),
              std::string::npos);
    EXPECT_NE(r.violations[1].message.find("matches no violation"),
              std::string::npos);
}

TEST(LintFixtures, WholeCorpusScanIsDeterministicJson)
{
    // Pointing the driver at the fixture directory opts into scanning
    // it (normal directory walks skip it); two runs must serialize to
    // identical bytes - the property CI relies on for clean diffs.
    auto run = [] {
        LintResult r = lintPath("tests/lint/fixtures");
        std::ostringstream os;
        writeJson(r, os);
        return os.str();
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    // All bad fixtures surfaced in one scan.
    EXPECT_NE(a.find("det-wallclock"), std::string::npos);
    EXPECT_NE(a.find("xcheck-tracepoint"), std::string::npos);
    EXPECT_NE(a.find("lint-suppression"), std::string::npos);
}

TEST(LintTracepoints, ParsedTableMatchesRuntimeTable)
{
    // The analyzer parses src/sim/tracepoint.hh; the runtime compiles
    // it. Both views must agree name-for-name, in enum order.
    LintResult r = lintPath("tests/lint/fixtures/good_tracepoint.cc");
    ASSERT_TRUE(r.errors.empty());
    ASSERT_EQ(r.tracepointNames.size(), bssd::sim::tpCount);
    for (std::uint32_t i = 0; i < bssd::sim::tpCount; ++i) {
        const auto tp = static_cast<bssd::sim::Tp>(i);
        EXPECT_EQ(r.tracepointNames[i], bssd::sim::tpName(tp)) << i;
        EXPECT_EQ(bssd::sim::tpFromName(r.tracepointNames[i]), tp) << i;
    }
}

TEST(LintSpanNames, BadFixtureFlagsBothSpanAndPhase)
{
    // One typo'd (cat, name) pair plus one typo'd phase name: both
    // surface, nothing else does.
    LintResult r = lintPath(kFixtures + "bad_span_name.cc");
    ASSERT_TRUE(r.errors.empty());
    ASSERT_EQ(r.violations.size(), 2u);
    EXPECT_NE(r.violations[0].message.find("'wal.comit'"),
              std::string::npos);
    EXPECT_NE(r.violations[1].message.find("'mediaa'"),
              std::string::npos);
}

TEST(LintSpanNames, ParsedTableMatchesRuntimeTable)
{
    // The analyzer parses src/sim/span_names.hh; the runtime compiles
    // it. Both views must agree entry-for-entry, in table order.
    std::ifstream in(std::string(kRoot) + "/src/sim/span_names.hh",
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    LexedFile f = lex("src/sim/span_names.hh", ss.str());
    ProjectTables tables;
    parseSpanNameTable(f, tables);
    ASSERT_EQ(tables.spanNames.size(), bssd::sim::spanNameCount);
    for (std::size_t i = 0; i < bssd::sim::spanNameCount; ++i) {
        EXPECT_EQ(tables.spanNames[i].first,
                  bssd::sim::kSpanNames[i].cat) << i;
        EXPECT_EQ(tables.spanNames[i].second,
                  bssd::sim::kSpanNames[i].name) << i;
        EXPECT_TRUE(bssd::sim::spanNameKnown(
            tables.spanNames[i].first, tables.spanNames[i].second));
    }
    ASSERT_EQ(tables.phaseNames.size(), bssd::sim::phaseNameCount);
    for (std::size_t i = 0; i < bssd::sim::phaseNameCount; ++i) {
        EXPECT_EQ(tables.phaseNames[i], bssd::sim::kPhaseNames[i]) << i;
        EXPECT_TRUE(bssd::sim::phaseNameKnown(tables.phaseNames[i]));
    }
}

TEST(LintTables, MissingTablesAreErrors)
{
    // A --root without the canonical tables (or with tables that parse
    // empty) would silently switch off xcheck-tracepoint and
    // xcheck-span-name; runLint must report an error instead.
    namespace fs = std::filesystem;
    const fs::path root = fs::path(::testing::TempDir()) /
                          ("lint_no_tables_" + std::to_string(::getpid()));
    fs::remove_all(root);
    fs::create_directories(root);
    fs::copy_file(fs::path(kRoot) / kFixtures / "bad_tracepoint.cc",
                  root / "bad_tracepoint.cc");
    LintOptions opts;
    opts.root = root.string();
    opts.paths = {"bad_tracepoint.cc"};
    LintResult r = runLint(opts);
    EXPECT_FALSE(r.clean());
    ASSERT_EQ(r.errors.size(), 2u);
    EXPECT_NE(r.errors[0].find("tracepoint table"), std::string::npos);
    EXPECT_NE(r.errors[1].find("span table"), std::string::npos);

    // Present but unparseable: still an error, not a silent pass.
    fs::create_directories(root / "src/sim");
    std::ofstream(root / "src/sim/tracepoint.hh") << "// renamed\n";
    std::ofstream(root / "src/sim/span_names.hh") << "// renamed\n";
    EXPECT_EQ(runLint(opts).errors.size(), 2u);
    fs::remove_all(root);
}

TEST(LintCatalog, RuleIdsAreSortedAndKnown)
{
    const auto &cat = ruleCatalog();
    ASSERT_FALSE(cat.empty());
    for (std::size_t i = 1; i < cat.size(); ++i)
        EXPECT_LT(cat[i - 1].id, cat[i].id);
    for (const auto &info : cat) {
        EXPECT_TRUE(knownRule(info.id));
        EXPECT_FALSE(info.summary.empty()) << info.id;
    }
    EXPECT_FALSE(knownRule("no-such-rule"));
}

TEST(LintRepo, TreeIsCleanUnderTheSameGateAsCi)
{
    // The whole point of the PR: zero unsuppressed violations across
    // the same path set the CI gate scans.
    LintOptions opts;
    opts.root = kRoot;
    opts.paths = {"src", "tools", "bench", "tests"};
    LintResult r = runLint(opts);
    EXPECT_TRUE(r.errors.empty());
    for (const auto &v : r.violations)
        ADD_FAILURE() << v.file << ":" << v.line << " [" << v.rule
                      << "] " << v.message;
}

/**
 * @file
 * bssd-lint CLI: the determinism & instrumentation static-analysis
 * gate (DESIGN.md section 11).
 *
 * Usage:
 *   bssd_lint [--json] [--root=DIR] [--list-rules] [PATH...]
 *
 * PATHs are files or directories (default: src tools bench tests,
 * relative to --root, default "."). Exit code 0 when clean, 1 when
 * violations were found, 2 on usage or I/O errors (a missing canonical
 * table under --root included) - so CI can use it as a blocking gate:
 *
 *   build/tools/bssd_lint --json src tools bench tests
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "lint/lint.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: bssd_lint [--json] [--root=DIR] [--list-rules] "
        "[PATH...]\n"
        "  PATHs default to: src tools bench tests\n"
        "  exit: 0 clean, 1 violations, 2 usage/IO error\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bssd::lint::LintOptions opts;
    bool json = false;
    bool listRules = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--list-rules") {
            listRules = true;
        } else if (arg.rfind("--root=", 0) == 0) {
            opts.root = arg.substr(7);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "bssd_lint: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            opts.paths.push_back(arg);
        }
    }

    if (listRules) {
        for (const auto &r : bssd::lint::ruleCatalog()) {
            std::printf("%-24s %s\n", r.id.c_str(), r.summary.c_str());
            if (!r.hint.empty())
                std::printf("%-24s   hint: %s\n", "", r.hint.c_str());
        }
        return 0;
    }

    if (opts.paths.empty())
        opts.paths = {"src", "tools", "bench", "tests"};

    bssd::lint::LintResult result = bssd::lint::runLint(opts);
    if (json)
        bssd::lint::writeJson(result, std::cout);
    else
        bssd::lint::writeText(result, std::cout);

    if (!result.errors.empty())
        return 2;
    return result.violations.empty() ? 0 : 1;
}

/**
 * @file
 * Shared helpers for the benchmark binaries: consistent table output
 * and checked flag parsing, which the tools/ binaries use too (the
 * device/WAL configurations are in bench_rigs.hh).
 *
 * Every binary regenerates one table or figure from the paper and
 * prints (a) the measured series and (b) the paper's reference
 * numbers or shape expectations, so EXPERIMENTS.md can be refreshed
 * by re-running every binary under build/bench/.
 */

#ifndef BSSD_BENCH_BENCH_UTIL_HH
#define BSSD_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace bssd::bench
{

/** Print a figure/table banner. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::printf("\n=============================================="
                "==================\n");
    std::printf("%s - %s\n", id.c_str(), title.c_str());
    std::printf("================================================"
                "================\n");
}

/** Print a section rule. */
inline void
section(const std::string &name)
{
    std::printf("\n--- %s ---\n", name.c_str());
}

/**
 * The value of an optional flag (`--trace=<file>` or
 * `--trace <file>`). @return nullptr when absent.
 */
inline const char *
flagValue(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind(flag + "=", 0) == 0)
            return argv[i] + flag.size() + 1;
        if (a == flag && i + 1 < argc)
            return argv[i + 1];
    }
    return nullptr;
}

/** A string-valued flag. @return empty string when absent. */
inline std::string
stringArg(int argc, char **argv, const std::string &flag)
{
    const char *v = flagValue(argc, argv, flag);
    return v ? v : "";
}

/**
 * A flag's value @p v as an unsigned number in [@p min, @p max].
 * Anything but digits, or a value outside the range, prints an error
 * naming the flag and exits 2, so a typo never runs as 0.
 */
inline std::uint64_t
unsignedValue(const std::string &flag, const char *v, std::uint64_t min,
              std::uint64_t max)
{
    bool ok = *v != '\0';
    std::uint64_t n = 0;
    for (const char *p = v; ok && *p != '\0'; ++p) {
        const auto d = static_cast<unsigned char>(*p - '0');
        ok = d <= 9 && d <= max && n <= (max - d) / 10;
        n = n * 10 + d;
    }
    if (!ok || n < min) {
        std::fprintf(stderr,
                     "error: %s expects a number from %llu to %llu, got "
                     "'%s'\n",
                     flag.c_str(), static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), v);
        std::exit(2);
    }
    return n;
}

/**
 * A flag's value @p v as a decimal number in [0, @p max], under the
 * same whole-string rule and exit as unsignedValue.
 */
inline double
decimalValue(const std::string &flag, const char *v, double max)
{
    char *end = nullptr;
    const double x = std::strtod(v, &end);
    // strtod alone takes leading blanks and signs, "nan" and "inf", and
    // stops quietly at the first character that is not part of a number.
    const bool digitFirst = (*v >= '0' && *v <= '9') || *v == '.';
    if (!digitFirst || *end != '\0' || !(x >= 0.0 && x <= max)) {
        std::fprintf(stderr,
                     "error: %s expects a number from 0 to %g, got '%s'\n",
                     flag.c_str(), max, v);
        std::exit(2);
    }
    return x;
}

/**
 * An unsigned flag (`--threads=4` or `--threads 4`) in [0, @p max],
 * checked by unsignedValue. @return nullopt when absent.
 */
inline std::optional<unsigned>
unsignedArg(int argc, char **argv, const std::string &flag,
            unsigned max)
{
    const char *v = flagValue(argc, argv, flag);
    if (v == nullptr)
        return std::nullopt;
    return static_cast<unsigned>(unsignedValue(flag, v, 0, max));
}

/** Human-readable byte size. */
inline std::string
sizeLabel(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        std::snprintf(buf, sizeof(buf), "%lluM",
                      static_cast<unsigned long long>(bytes >> 20));
    else if (bytes >= 1024 && bytes % 1024 == 0)
        std::snprintf(buf, sizeof(buf), "%lluK",
                      static_cast<unsigned long long>(bytes >> 10));
    else if (bytes >= 1024)
        std::snprintf(buf, sizeof(buf), "%.1fK",
                      static_cast<double>(bytes) / 1024.0);
    else
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

} // namespace bssd::bench

#endif // BSSD_BENCH_BENCH_UTIL_HH

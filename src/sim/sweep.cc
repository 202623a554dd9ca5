#include "sim/sweep.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <ostream>
#include <thread>

namespace bssd::sim
{

unsigned
defaultSweepThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
runParallel(const std::vector<std::function<void()>> &jobs,
            unsigned threads)
{
    if (threads == 0)
        threads = defaultSweepThreads();
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, jobs.size()));

    if (threads <= 1) {
        for (const auto &job : jobs)
            job();
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorLock;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            try {
                jobs[i]();
            } catch (...) {
                std::lock_guard<std::mutex> g(errorLock);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);
}

namespace
{

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default: os << c;
        }
    }
    os << '"';
}

} // namespace

void
writeSweepJson(std::ostream &os, const std::vector<SweepRecord> &records,
               unsigned threads, double totalWallMs)
{
    os << "{\n  \"threads\": " << threads << ",\n  \"wall_ms\": "
       << totalWallMs << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SweepRecord &r = records[i];
        os << "    {\"device\": ";
        jsonEscape(os, r.device);
        os << ", \"workload\": ";
        jsonEscape(os, r.workload);
        os << ", \"clients\": " << r.clients
           << ", \"seed\": " << r.seed
           << ", \"ops\": " << r.ops << ", \"ops_per_sec\": "
           << r.opsPerSec << ", \"mean_us\": " << r.meanUs
           << ", \"p99_us\": " << r.p99Us << ", \"wall_ms\": " << r.wallMs
           << ", \"events_per_sec\": " << r.eventsPerSec << "}";
        os << (i + 1 < records.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

} // namespace bssd::sim

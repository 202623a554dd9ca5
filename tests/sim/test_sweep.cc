/**
 * @file
 * Unit tests for the parallel sweep harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/sweep.hh"

using namespace bssd::sim;

TEST(Sweep, RunsEveryJobExactlyOnce)
{
    std::vector<int> hits(100, 0);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < hits.size(); ++i)
        jobs.push_back([&hits, i] { hits[i] += 1; });
    runParallel(jobs, 4);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "job " << i;
}

TEST(Sweep, SerialAndParallelProduceIdenticalResults)
{
    // Jobs that only touch their own slot must be oblivious to the
    // worker count.
    auto runWith = [](unsigned threads) {
        std::vector<std::uint64_t> out(64, 0);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < out.size(); ++i) {
            jobs.push_back([&out, i] {
                std::uint64_t x = 0x9e3779b9u + i;
                for (int r = 0; r < 1000; ++r)
                    x = x * 6364136223846793005ull + 1442695040888963407ull;
                out[i] = x;
            });
        }
        runParallel(jobs, threads);
        return out;
    };
    EXPECT_EQ(runWith(1), runWith(4));
    EXPECT_EQ(runWith(1), runWith(16));
}

TEST(Sweep, MoreThreadsThanJobsIsFine)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs = {
        [&count] { ++count; },
        [&count] { ++count; },
    };
    runParallel(jobs, 32);
    EXPECT_EQ(count.load(), 2);
}

TEST(Sweep, EmptyJobListIsNoop)
{
    runParallel({}, 8);
}

TEST(Sweep, ZeroThreadsMeansAuto)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 10; ++i)
        jobs.push_back([&count] { ++count; });
    runParallel(jobs, 0);
    EXPECT_EQ(count.load(), 10);
}

TEST(Sweep, JobExceptionPropagates)
{
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back([] {});
    jobs.push_back([] { throw std::runtime_error("cell exploded"); });
    EXPECT_THROW(runParallel(jobs, 4), std::runtime_error);
}

TEST(Sweep, JsonReportIsWellFormed)
{
    SweepRecord r;
    r.device = "ULL-SSD";
    r.workload = "linkbench\"quoted\"";
    r.clients = 8;
    r.seed = 42;
    r.ops = 1000;
    r.opsPerSec = 12345.5;
    r.meanUs = 10.25;
    r.p99Us = 99.75;
    r.wallMs = 12.0;
    r.eventsPerSec = 1e6;

    std::ostringstream os;
    writeSweepJson(os, {r}, 4, 100.0);
    std::string s = os.str();
    EXPECT_NE(s.find("\"threads\": 4"), std::string::npos);
    EXPECT_NE(s.find("\"device\": \"ULL-SSD\""), std::string::npos);
    EXPECT_NE(s.find("linkbench\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(s.find("\"ops_per_sec\": 12345.5"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
    EXPECT_EQ(std::count(s.begin(), s.end(), '['),
              std::count(s.begin(), s.end(), ']'));
}

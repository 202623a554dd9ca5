/**
 * @file
 * google-benchmark micro suite over the simulator's hot paths.
 *
 * Unlike the figure benches (which report SIMULATED time), this
 * binary measures the WALL-CLOCK cost of the model itself - useful
 * when deciding how long an experiment horizon is affordable and for
 * catching performance regressions in the simulator.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "db/miniredis/miniredis.hh"
#include "ftl/ftl.hh"
#include "nand/nand_flash.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/ssd_device.hh"
#include "wal/ba_wal.hh"
#include "wal/record.hh"

using namespace bssd;

namespace
{

void
BM_RngNext(benchmark::State &state)
{
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_ZipfianSample(benchmark::State &state)
{
    sim::Rng rng(1);
    sim::Zipfian z(1'000'000, 0.99);
    for (auto _ : state)
        benchmark::DoNotOptimize(z.sample(rng));
}
BENCHMARK(BM_ZipfianSample);

void
BM_Crc32c(benchmark::State &state)
{
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(state.range(0)), 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(wal::crc32c(data));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(4096);

/**
 * Event kernel, timer chains: 64 self-rescheduling timers (the shape of
 * the router's arrival cycle and the drain poll) fire range(0) events
 * per iteration. items_per_second is kernel events per wall second.
 */
void
BM_EventQueueTimerChains(benchmark::State &state)
{
    constexpr std::size_t kChains = 64;
    const auto total = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::size_t armed = 0;
        std::size_t fired = 0;
        std::function<void(std::size_t)> arm = [&](std::size_t c) {
            if (armed == total)
                return;
            ++armed;
            q.schedule(q.now() + 1 + c % 7, [&, c] {
                ++fired;
                arm(c);
            });
        };
        for (std::size_t c = 0; c < kChains; ++c)
            arm(c);
        q.runWindow(sim::maxTick);
        if (fired != total)
            sim::fatal("timer chains fired ", fired, " != ", total);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueTimerChains)->Arg(1 << 16)->UseRealTime();

/**
 * Event kernel, burst drain: bursts of 4096 events land at scattered
 * future ticks and drain, range(0) events per iteration (the shape of
 * the engine's barrier delivery and the power-loss dump).
 */
void
BM_EventQueueBurstDrain(benchmark::State &state)
{
    constexpr std::size_t kBurst = 4096;
    const auto total = static_cast<std::size_t>(state.range(0));
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto _ : state) {
        sim::EventQueue q;
        std::size_t fired = 0;
        for (std::size_t scheduled = 0; scheduled < total;
             scheduled += kBurst) {
            for (std::size_t i = 0; i < kBurst; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.schedule(q.now() + 1 + (x & 0xffff), [&fired] { ++fired; });
            }
            q.runWindow(sim::maxTick);
        }
        if (fired != total)
            sim::fatal("burst drain fired ", fired, " != ", total);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueBurstDrain)->Arg(1 << 16)->UseRealTime();

void
BM_FtlWrite4k(benchmark::State &state)
{
    nand::NandFlash flash(nand::NandConfig::slcUltraLowLatency());
    ftl::Ftl ftl(flash);
    std::vector<std::uint8_t> page(4096, 1);
    sim::Tick t = 0;
    ftl::Lpn lpn = 0;
    for (auto _ : state) {
        t = ftl.write(t, lpn, 1, page).end;
        lpn = (lpn + 1) % 100000;
    }
}
BENCHMARK(BM_FtlWrite4k);

void
BM_BlockWrite4k(benchmark::State &state)
{
    ssd::SsdDevice dev(ssd::SsdConfig::ullSsd());
    std::vector<std::uint8_t> page(4096, 1);
    sim::Tick t = 0;
    std::uint64_t off = 0;
    for (auto _ : state) {
        t = dev.blockWrite(t, off, page).end;
        off = (off + 4096) % (sim::GiB);
    }
}
BENCHMARK(BM_BlockWrite4k);

void
BM_MmioWrite128(benchmark::State &state)
{
    ba::TwoBSsd dev;
    dev.baPin(0, 1, 0, 0, 4 * sim::MiB);
    std::vector<std::uint8_t> d(128, 1);
    sim::Tick t = sim::msOf(10);
    std::uint64_t off = 0;
    for (auto _ : state) {
        t = dev.mmioWrite(t, off, d);
        t = dev.baSyncRange(t, 1, off, d.size());
        off = (off + 128) % (4 * sim::MiB - 128);
    }
}
BENCHMARK(BM_MmioWrite128);

void
BM_BaWalAppendCommit(benchmark::State &state)
{
    ba::TwoBSsd dev;
    wal::BaWalConfig cfg;
    cfg.regionBytes = 4 * sim::GiB;
    wal::BaWal wal(dev, cfg);
    std::vector<std::uint8_t> p(
        static_cast<std::size_t>(state.range(0)), 2);
    sim::Tick t = sim::msOf(10);
    std::uint64_t seq = 0;
    for (auto _ : state) {
        auto frame = wal::frameRecord(seq++, p);
        t = wal.append(t, frame);
        t = wal.commit(t);
    }
}
BENCHMARK(BM_BaWalAppendCommit)->Arg(64)->Arg(1024);

void
BM_RedisSetOn2b(benchmark::State &state)
{
    ba::TwoBSsd dev;
    wal::BaWalConfig cfg;
    cfg.regionBytes = 4 * sim::GiB;
    cfg.doubleBuffer = false;
    wal::BaWal aof(dev, cfg);
    db::miniredis::MiniRedis r(aof);
    std::vector<std::uint8_t> v(100, 1);
    sim::Tick t = sim::msOf(10);
    std::uint64_t i = 0;
    for (auto _ : state)
        t = r.set(t, "key" + std::to_string(i++ % 10000), v);
}
BENCHMARK(BM_RedisSetOn2b);

} // namespace

BENCHMARK_MAIN();

#include "workload/fio.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bssd::workload
{

namespace
{

bool
isRead(const FioJob &job, sim::Rng &rng)
{
    switch (job.pattern) {
      case FioPattern::seqRead:
      case FioPattern::randRead:
        return true;
      case FioPattern::seqWrite:
      case FioPattern::randWrite:
        return false;
      case FioPattern::randRw:
        return rng.nextBelow(1000) < job.readPerMille;
    }
    return true;
}

bool
isSequential(const FioJob &job)
{
    return job.pattern == FioPattern::seqRead ||
           job.pattern == FioPattern::seqWrite;
}

} // namespace

FioResult
runFio(ssd::SsdDevice &dev, const FioJob &job)
{
    if (job.blockSize == 0 || job.ios == 0)
        sim::fatal("FIO job needs a block size and an I/O count");
    if (job.regionBytes < job.blockSize)
        sim::fatal("FIO region smaller than one request");
    if (job.regionOffset + job.regionBytes > dev.capacityBytes())
        sim::fatal("FIO region exceeds device capacity");

    const std::uint64_t slots = job.regionBytes / job.blockSize;
    sim::Rng rng(job.seed);

    sim::Tick t = 0;
    if (job.precondition) {
        // Fill the region sequentially so reads hit programmed pages.
        std::vector<std::uint8_t> chunk(
            std::min<std::uint64_t>(job.regionBytes, 4 * sim::MiB),
            0xf1);
        for (std::uint64_t off = 0; off < job.regionBytes;
             off += chunk.size()) {
            std::uint64_t n =
                std::min<std::uint64_t>(chunk.size(),
                                        job.regionBytes - off);
            t = dev.blockWrite(t, job.regionOffset + off,
                               std::span<const std::uint8_t>(
                                   chunk.data(), n))
                    .end;
        }
        // Let the write buffer destage fully before measuring: the
        // fill left die-calendar reservations that reads would
        // otherwise queue behind (1 GB/s is a conservative bound on
        // every preset's drain rate).
        t += job.regionBytes + sim::msOf(5);
    }

    const std::uint16_t queues = std::max<std::uint16_t>(1, job.queues);
    ssd::NvmeQueueConfig qcfg;
    // Per-pair depth splits the job's total so the fleet of pairs
    // admits exactly queueDepth outstanding commands.
    qcfg.depth = static_cast<std::uint16_t>(
        (job.queueDepth + queues - 1) / queues);
    ssd::NvmeMultiQueue mq(dev, queues, qcfg);

    sim::Histogram lat("fio.lat");
    std::vector<std::uint8_t> wdata(job.blockSize, 0x3f);
    // One read buffer per outstanding slot.
    std::vector<std::vector<std::uint8_t>> rbufs(
        job.queueDepth, std::vector<std::uint8_t>(job.blockSize));
    std::map<std::uint16_t, sim::Tick> issueTime;
    std::deque<std::uint16_t> freeSlots;
    for (std::uint16_t s = 0; s < job.queueDepth; ++s)
        freeSlots.push_back(s);

    const sim::Tick start = t;
    std::uint32_t issued = 0, completed = 0;
    std::uint64_t seq_slot = 0;

    while (completed < job.ios) {
        while (issued < job.ios && !freeSlots.empty()) {
            std::uint16_t slot = freeSlots.front();
            std::uint64_t index = isSequential(job)
                ? (seq_slot++ % slots)
                : rng.nextBelow(slots);
            ssd::NvmeCommand cmd;
            cmd.cid = slot;
            cmd.offset =
                job.regionOffset + index * job.blockSize;
            cmd.length = job.blockSize;
            if (isRead(job, rng)) {
                cmd.opc = ssd::NvmeOpcode::read;
                cmd.readBuf = &rbufs[slot];
            } else {
                cmd.opc = ssd::NvmeOpcode::write;
                cmd.writeData = wdata;
            }
            auto ok = mq.submit(t, cmd);
            if (!ok.has_value())
                break;
            freeSlots.pop_front();
            issueTime[slot] = t;
            t = ok->cpuFree;
            ++issued;
        }
        // Reap the next completion.
        for (;;) {
            auto cpl = mq.poll(t);
            if (cpl.has_value()) {
                ++completed;
                lat.record(cpl->completedAt - issueTime[cpl->cid]);
                freeSlots.push_back(cpl->cid);
                t = std::max(t, cpl->completedAt);
                break;
            }
            t += sim::nsOf(200); // polling granularity
        }
    }

    FioResult res;
    res.completed = completed;
    const sim::Tick dur = t - start;
    res.iops = completed / sim::toSec(dur);
    res.bandwidthGBps =
        static_cast<double>(std::uint64_t(completed) * job.blockSize) /
        static_cast<double>(dur);
    res.meanLatencyUs = lat.mean() / 1e3;
    res.p99LatencyUs = static_cast<double>(lat.percentile(99)) / 1e3;
    return res;
}

} // namespace bssd::workload

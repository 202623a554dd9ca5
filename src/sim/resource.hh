/**
 * @file
 * Timed resource calendars.
 *
 * Host-facing operations in this simulator are composed from
 * reservations against shared resources (NAND channels, the PCIe link,
 * the read DMA engine, a WAL writer lock, ...). A reservation asks "I am
 * ready at time E and need the resource for D ticks" and receives the
 * granted [start, end) interval; the calendar advances so later
 * reservations queue FIFO behind it. This reproduces the schedules a
 * full event-driven model would produce for closed-loop clients while
 * letting the database engines above be written as straight-line code.
 */

#ifndef BSSD_SIM_RESOURCE_HH
#define BSSD_SIM_RESOURCE_HH

#include <cstdint>
#include <string>

#include "sim/ticks.hh"

namespace bssd::sim
{

/** A granted usage interval: the resource is held for [start, end). */
struct Interval
{
    Tick start = 0;
    Tick end = 0;

    /** Total queueing + service time seen by a requester ready at t. */
    Tick latencyFrom(Tick t) const { return end - t; }
};

/**
 * A single-server FIFO resource. Reservations are granted in call
 * order; a request ready before the server frees up queues behind the
 * previous one.
 */
class FifoResource
{
  public:
    explicit FifoResource(std::string name = "resource")
        : name_(std::move(name))
    {}

    /**
     * Reserve the resource for @p duration ticks, no earlier than
     * @p earliest.
     */
    Interval reserve(Tick earliest, Tick duration);

    /** Earliest time a new reservation could start. */
    Tick nextFree() const { return nextFree_; }

    /** Total ticks of granted service time (utilization numerator). */
    Tick busyTime() const { return busy_; }

    /** Number of grants made. */
    std::uint64_t grants() const { return grants_; }

    /** Forget all reservations (fresh run). */
    void reset();

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    Tick nextFree_ = 0;
    Tick busy_ = 0;
    std::uint64_t grants_ = 0;
};

/**
 * A leaky-bucket occupancy model for a buffer that fills on demand and
 * drains at a fixed rate (the SSD write buffer destaging to NAND).
 *
 * admit() answers: "if I add `bytes` at time t, when does the buffer
 * have room, and what is the new occupancy?" Writes complete when the
 * data is in the buffer, so the admit time is the only latency the
 * host observes until the buffer saturates, at which point writes
 * become drain-rate bound - exactly the QD1 bandwidth behaviour of a
 * capacitor-backed SSD.
 */
class DrainingBuffer
{
  public:
    /**
     * @param capacityBytes buffer size
     * @param drainRate     destage bandwidth (bytes/ns)
     */
    DrainingBuffer(std::uint64_t capacityBytes, Bandwidth drainRate);

    /**
     * Admit @p bytes into the buffer, waiting for space if needed.
     * @param ready time the data is available to enqueue
     * @return time at which the final byte fits in the buffer
     */
    Tick admit(Tick ready, std::uint64_t bytes);

    /** Occupancy after draining up to time @p t (does not modify state). */
    std::uint64_t occupancyAt(Tick t) const;

    /** Time at which the buffer becomes completely empty. */
    Tick drainedAt() const;

    std::uint64_t capacity() const { return capacity_; }
    void reset();

  private:
    std::uint64_t capacity_;
    Bandwidth drainRate_;
    std::uint64_t occupancy_ = 0; // bytes at time lastUpdate_
    Tick lastUpdate_ = 0;

    void drainTo(Tick t);
};

} // namespace bssd::sim

#endif // BSSD_SIM_RESOURCE_HH

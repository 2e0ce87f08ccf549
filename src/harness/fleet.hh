/**
 * @file
 * Sharded multi-stream decode fleet (admission + coalescing core).
 *
 * The fleet turns the decode service from one synthetic workload into
 * a front-end for thousands of per-logical-qubit syndrome streams:
 *
 *   TCP readers (net/fleet_server) --submitGroup()--> shard MPSC rings
 *        --> shard worker: coalesce -> Decoder::decodeBatch
 *        --> one account call per flush -> verdicts
 *
 * Each stream id is hashed onto one of N shards, so a stream's shots
 * decode in order on one worker while shards run independently. A
 * shard owns a bounded lock-free MPSC ring (common/mpsc_ring.hh); its
 * worker drains arrivals into a pending block and flushes it through
 * the HW-bucketed wide decodeBatch path. Coalescing is work-conserving:
 * a worker flushes whatever it popped as soon as the ring is drained,
 * capped at maxBatch shots, so batches fill under load and a lone shot
 * never waits for company. An idle worker parks on a futex (C++20
 * atomic wait) and submitGroup() wakes it.
 *
 * The per-shot costs around the decode are paid once per group: a
 * reader hands each recv()'s frames over as groups of up to maxBatch
 * jobs (submitGroup: one clock read, one fence, at most one wake per
 * shard), and a worker accounts each flush with one hook call before
 * any of its verdicts leave.
 *
 * Backpressure is priority-aware load shedding at submit time: between
 * the low and high queue-depth watermarks the minimum admitted
 * priority ramps linearly from 0 to maxPriority, so the lowest-
 * priority streams shed first; past the high watermark only top-
 * priority shots are admitted, and a full ring rejects everything
 * (counted separately). Shed shots still get a Verdict frame (shed
 * flag set) so clients see backpressure instead of silence.
 *
 * The class is deliberately thread-optional and clock-injectable:
 * start() launches one worker thread per shard, but tests (and the
 * alloc assertions) drive submitGroup() + pumpShard() synchronously
 * with a fake clock and get deterministic coalescing/shedding. The
 * submit -> pump -> verdict path performs zero steady-state heap
 * allocations (tests/alloc_test.cc).
 */

#ifndef ASTREA_HARNESS_FLEET_HH
#define ASTREA_HARNESS_FLEET_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mpsc_ring.hh"
#include "harness/memory_experiment.hh"
#include "telemetry/json.hh"
#include "telemetry/prometheus.hh"

namespace astrea
{

/** Largest defect count a fleet job carries inline (HW cap). */
constexpr uint32_t kFleetMaxDefects = 64;

/** Fleet geometry and admission policy. */
struct FleetConfig
{
    unsigned shards = 2;
    /** Per-shard ring capacity (rounded up to a power of two). */
    size_t ringCapacity = 1024;
    /** Most shots one flush (one decodeBatch call) carries. */
    size_t maxBatch = 64;
    /** Shedding ramp start/end, as fractions of ring capacity. */
    double shedLowWatermark = 0.5;
    double shedHighWatermark = 0.9;
    /** Highest priority a stream can claim (fits in the wire u8). */
    uint8_t maxPriority = 7;
};

/** One ingested shot, copied by value through the shard ring. */
struct FleetJob
{
    uint32_t streamId = 0;
    uint32_t seq = 0;
    /** Opaque routing token (connection id) echoed in the verdict. */
    uint32_t connId = 0;
    uint8_t priority = 0;
    uint16_t hw = 0;  ///< Valid entries in defects.
    uint64_t ingestNs = 0;  ///< Stamped by submitGroup().
    std::array<uint32_t, kFleetMaxDefects> defects{};
};

/** Outcome of one shot, delivered to the verdict sink. */
struct FleetVerdict
{
    uint32_t streamId = 0;
    uint32_t seq = 0;
    uint32_t connId = 0;
    uint64_t obsMask = 0;
    bool gaveUp = false;
    bool shed = false;
    /** Protocol-level failure (e.g. defect count over the inline cap). */
    bool error = false;
    /** Ingest-to-verdict wall time; 0 for shed shots. */
    uint64_t latencyNs = 0;
    /** Set on every verdict of a flush except the last: the sink may
     *  hold this one back and write the whole flush at once when the
     *  unmarked verdict arrives. Shed and error verdicts are unmarked. */
    bool more = false;
};

/** A job's admission outcome (Shed and RingFull both emit a shed
 *  verdict). */
enum class FleetSubmit
{
    Enqueued,
    Shed,      ///< Below the admission ramp's required priority.
    RingFull,  ///< Ring rejected the push (hard backpressure).
};

/** The sharded fleet; see file comment. */
class DecodeFleet
{
  public:
    DecodeFleet(const FleetConfig &config,
                std::shared_ptr<const ExperimentContext> ctx,
                DecoderFactory factory);
    ~DecodeFleet();

    DecodeFleet(const DecodeFleet &) = delete;
    DecodeFleet &operator=(const DecodeFleet &) = delete;

    /** Verdicts (decoded and shed) are pushed here; set before the
     *  first submission. Called from shard workers and, for shed shots,
     *  from the submitting thread — the sink must be thread-safe. */
    void setVerdictSink(std::function<void(const FleetVerdict &)> sink);

    /** Called once per flush with its jobs and their results, before
     *  any of its verdicts reach the sink. */
    using FlushAccountHook =
        std::function<void(std::span<const FleetJob> jobs,
                           std::span<const DecodeResult> results)>;

    /** Per-flush accounting hook (SLO windows); optional. Set before
     *  start(). */
    void setFlushAccountHook(FlushAccountHook hook);

    /** Per-shot form of setFlushAccountHook: `hook` runs for each shot
     *  of a flush, in order. */
    void setAccountHook(
        std::function<void(size_t hw, double latency_ns, bool gave_up)>
            hook);

    /** Tests inject a fake monotonic clock (ns); default wall-clock. */
    void setNowFunction(std::function<uint64_t()> now);

    /** The shard a stream id hashes onto. */
    unsigned shardFor(uint32_t stream_id) const;

    /**
     * Admit a group of shots, in order: stamps each with one ingest
     * time, applies the shedding ramp against its shard's queue depth,
     * and either enqueues it or emits an immediate shed verdict. Then
     * one fence and at most one wake per shard the group enqueued
     * into. If `outcomes` is non-null, outcomes[i] receives job i's
     * outcome. Returns the number enqueued. Thread-safe.
     */
    size_t submitGroup(std::span<FleetJob> jobs,
                       FleetSubmit *outcomes = nullptr);

    /** submitGroup() of one shot. */
    FleetSubmit submit(FleetJob &job);

    /**
     * Pop up to maxBatch shots off one shard's ring and decode them as
     * one flush (the worker loop's body). Returns the number of shots
     * decoded; 0 means the ring was empty. Tests call this directly;
     * do not mix with start().
     */
    size_t pumpShard(unsigned shard, uint64_t now_ns);

    /** Pump a shard until its ring is empty (shutdown drain). */
    size_t flushShard(unsigned shard, uint64_t now_ns);

    /** Launch one worker thread per shard / wake and join them. */
    void start();
    void stop();

    /** Whether shard's worker is parked waiting for a submission. */
    bool workerParked(unsigned shard) const;

    /** Minimum admitted priority at queue depth `depth` (exposed for
     *  the shed-order tests; deterministic and stateless). */
    uint8_t requiredPriorityAtDepth(size_t depth) const;

    const FleetConfig &config() const { return config_; }
    uint32_t numDetectorBits() const { return numDetectorBits_; }
    size_t queueDepth(unsigned shard) const;

    // Ingest-side counters, bumped by the TCP front-end so every
    // fleet family renders from one place.
    void noteConnectionOpened() { connectionsTotal_.fetch_add(1, std::memory_order_relaxed); }
    void noteFrames(uint64_t n) { framesTotal_.fetch_add(n, std::memory_order_relaxed); }
    void noteMalformed() { malformedTotal_.fetch_add(1, std::memory_order_relaxed); }

    uint64_t enqueuedTotal() const { return enqueuedTotal_.load(std::memory_order_relaxed); }
    uint64_t shedTotal() const { return shedTotal_.load(std::memory_order_relaxed); }
    uint64_t ringFullTotal() const { return ringFullTotal_.load(std::memory_order_relaxed); }
    uint64_t batchesTotal() const { return batchesTotal_.load(std::memory_order_relaxed); }
    uint64_t decodedTotal() const { return decodedTotal_.load(std::memory_order_relaxed); }
    uint64_t malformedTotal() const { return malformedTotal_.load(std::memory_order_relaxed); }

    /** Prometheus families (astrea_fleet_*). */
    void writeMetrics(telemetry::PrometheusWriter &w) const;
    /** The /statusz "fleet" object's members (object already open). */
    void writeStatusz(telemetry::JsonWriter &w) const;

  private:
    struct Shard;

    /** Decode s.pendingJobs[0, n) as one batch and emit verdicts. */
    void flushLocked(Shard &s, size_t n, uint64_t now_ns);
    void workerLoop(unsigned shard);
    /** Clear a parked worker's flag and futex-wake it. Call after a
     *  seq_cst fence that follows the change the worker must see. */
    static void wakeIfParked(Shard &s);

    FleetConfig config_;
    std::shared_ptr<const ExperimentContext> ctx_;
    uint32_t numDetectorBits_ = 0;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> threads_;
    std::atomic<bool> running_{false};

    std::function<void(const FleetVerdict &)> sink_;
    FlushAccountHook account_;
    std::function<uint64_t()> now_;

    std::atomic<uint64_t> connectionsTotal_{0};
    std::atomic<uint64_t> framesTotal_{0};
    std::atomic<uint64_t> malformedTotal_{0};
    std::atomic<uint64_t> enqueuedTotal_{0};
    std::atomic<uint64_t> shedTotal_{0};
    std::atomic<uint64_t> ringFullTotal_{0};
    std::atomic<uint64_t> batchesTotal_{0};
    std::atomic<uint64_t> decodedTotal_{0};
};

} // namespace astrea

#endif // ASTREA_HARNESS_FLEET_HH

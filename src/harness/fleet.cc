#include "harness/fleet.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "decoders/decoder.hh"

namespace astrea
{

/** One shard: ring + worker-owned coalescing and decode state. */
struct DecodeFleet::Shard
{
    explicit Shard(size_t ring_capacity, size_t max_batch)
        : ring(ring_capacity), results(makeResultSlots(max_batch))
    {
        pendingJobs.resize(max_batch);
    }

    MpscRing<FleetJob> ring;
    /** 1 while the worker is parked (or about to park) in wait(). */
    alignas(64) std::atomic<uint32_t> parked{0};

    // Worker-thread-owned (no locking): the block being flushed, plus
    // reused decode buffers.
    std::vector<FleetJob> pendingJobs;
    std::unique_ptr<Decoder> decoder;
    SyndromeBatch batch;
    std::vector<DecodeResult> results;
    DecodeScratch scratch;
};

DecodeFleet::DecodeFleet(const FleetConfig &config,
                         std::shared_ptr<const ExperimentContext> ctx,
                         DecoderFactory factory)
    : config_(config), ctx_(std::move(ctx))
{
    config_.shards = std::max(1u, config_.shards);
    config_.maxBatch = std::max<size_t>(1, config_.maxBatch);
    ASTREA_CHECK(config_.shedLowWatermark <= config_.shedHighWatermark,
                 "fleet shed watermarks inverted");
    numDetectorBits_ =
        static_cast<uint32_t>(ctx_->circuit().numDetectors());

    shards_.reserve(config_.shards);
    for (unsigned i = 0; i < config_.shards; i++) {
        shards_.push_back(std::make_unique<Shard>(config_.ringCapacity,
                                                  config_.maxBatch));
        shards_.back()->decoder = factory(*ctx_);
    }

    now_ = [] {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    };
}

DecodeFleet::~DecodeFleet()
{
    stop();
}

void
DecodeFleet::setVerdictSink(
    std::function<void(const FleetVerdict &)> sink)
{
    sink_ = std::move(sink);
}

void
DecodeFleet::setFlushAccountHook(FlushAccountHook hook)
{
    account_ = std::move(hook);
}

void
DecodeFleet::setAccountHook(
    std::function<void(size_t, double, bool)> hook)
{
    if (!hook) {
        account_ = nullptr;
        return;
    }
    account_ = [hook = std::move(hook)](
                   std::span<const FleetJob> jobs,
                   std::span<const DecodeResult> results) {
        for (size_t i = 0; i < jobs.size(); i++)
            hook(jobs[i].hw, results[i].latencyNs, results[i].gaveUp);
    };
}

void
DecodeFleet::setNowFunction(std::function<uint64_t()> now)
{
    now_ = std::move(now);
}

unsigned
DecodeFleet::shardFor(uint32_t stream_id) const
{
    // Fibonacci hash spreads adjacent stream ids across shards.
    uint32_t h = stream_id * 0x9E3779B9u;
    return (h >> 16) % config_.shards;
}

size_t
DecodeFleet::queueDepth(unsigned shard) const
{
    return shards_[shard]->ring.sizeApprox();
}

uint8_t
DecodeFleet::requiredPriorityAtDepth(size_t depth) const
{
    const double cap = static_cast<double>(config_.ringCapacity);
    const double low = config_.shedLowWatermark * cap;
    const double high = config_.shedHighWatermark * cap;
    const double d = static_cast<double>(depth);
    if (d < low || config_.maxPriority == 0)
        return 0;
    if (d >= high)
        return config_.maxPriority;
    const double frac = (d - low) / std::max(1.0, high - low);
    return static_cast<uint8_t>(
        std::ceil(frac * static_cast<double>(config_.maxPriority)));
}

size_t
DecodeFleet::submitGroup(std::span<FleetJob> jobs, FleetSubmit *outcomes)
{
    const uint64_t now = now_();
    // Shards the group enqueued into; shards past 63 share bit 63.
    uint64_t touched = 0;
    size_t enqueued = 0;
    for (size_t i = 0; i < jobs.size(); i++) {
        FleetJob &job = jobs[i];
        job.ingestNs = now;
        const unsigned shard = shardFor(job.streamId);
        Shard &s = *shards_[shard];
        FleetSubmit outcome = FleetSubmit::Enqueued;
        if (job.priority < requiredPriorityAtDepth(s.ring.sizeApprox()))
            outcome = FleetSubmit::Shed;
        else if (!s.ring.tryPush(job))
            outcome = FleetSubmit::RingFull;
        if (outcomes != nullptr)
            outcomes[i] = outcome;
        if (outcome == FleetSubmit::Enqueued) {
            // Counted right after its push, not at the group's end:
            // the shard's worker may answer this job before the group
            // ends, and a client holding the verdict may read the
            // counters.
            enqueuedTotal_.fetch_add(1, std::memory_order_relaxed);
            enqueued++;
            touched |= 1ull << std::min(shard, 63u);
            continue;
        }
        if (outcome == FleetSubmit::RingFull)
            ringFullTotal_.fetch_add(1, std::memory_order_relaxed);
        shedTotal_.fetch_add(1, std::memory_order_relaxed);
        if (sink_) {
            FleetVerdict shed;
            shed.streamId = job.streamId;
            shed.seq = job.seq;
            shed.connId = job.connId;
            shed.shed = true;
            sink_(shed);
        }
    }
    if (enqueued == 0)
        return 0;
    // Pairs with the worker's fence between parking and re-checking
    // the ring: either it sees these pushes or we see it parked.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (unsigned i = 0; i < config_.shards; i++) {
        if ((touched >> std::min(i, 63u)) & 1)
            wakeIfParked(*shards_[i]);
    }
    return enqueued;
}

FleetSubmit
DecodeFleet::submit(FleetJob &job)
{
    FleetSubmit outcome = FleetSubmit::Enqueued;
    submitGroup({&job, 1}, &outcome);
    return outcome;
}

void
DecodeFleet::wakeIfParked(Shard &s)
{
    if (s.parked.load(std::memory_order_relaxed) != 0) {
        s.parked.store(0, std::memory_order_relaxed);
        s.parked.notify_one();
    }
}

bool
DecodeFleet::workerParked(unsigned shard) const
{
    return shards_[shard]->parked.load(std::memory_order_relaxed) != 0;
}

void
DecodeFleet::flushLocked(Shard &s, size_t n, uint64_t now_ns)
{
    s.batch.clear();
    for (size_t i = 0; i < n; i++) {
        const FleetJob &j = s.pendingJobs[i];
        s.batch.add({j.defects.data(), j.hw});
    }
    s.decoder->decodeBatch(s.batch, s.results, s.scratch);
    // Count and account the flush before its verdicts leave: whoever
    // holds a verdict may read the counters, and must find it counted.
    batchesTotal_.fetch_add(1, std::memory_order_relaxed);
    decodedTotal_.fetch_add(n, std::memory_order_relaxed);
    if (account_)
        account_({s.pendingJobs.data(), n}, {s.results.data(), n});
    if (!sink_)
        return;

    for (size_t i = 0; i < n; i++) {
        const FleetJob &j = s.pendingJobs[i];
        const DecodeResult &dr = s.results[i];
        FleetVerdict v;
        v.streamId = j.streamId;
        v.seq = j.seq;
        v.connId = j.connId;
        v.obsMask = dr.obsMask;
        v.gaveUp = dr.gaveUp;
        v.latencyNs = now_ns > j.ingestNs ? now_ns - j.ingestNs : 0;
        v.more = i + 1 < n;
        sink_(v);
    }
}

size_t
DecodeFleet::pumpShard(unsigned shard, uint64_t now_ns)
{
    Shard &s = *shards_[shard];
    size_t n = 0;
    while (n < config_.maxBatch && s.ring.tryPop(s.pendingJobs[n]))
        n++;
    if (n > 0)
        flushLocked(s, n, now_ns);
    return n;
}

size_t
DecodeFleet::flushShard(unsigned shard, uint64_t now_ns)
{
    size_t n = 0;
    while (size_t k = pumpShard(shard, now_ns))
        n += k;
    return n;
}

void
DecodeFleet::workerLoop(unsigned shard)
{
    Shard &s = *shards_[shard];
    while (running_.load(std::memory_order_relaxed)) {
        if (pumpShard(shard, now_()) > 0)
            continue;
        // Park: announce it, fence, then re-check the ring and
        // running_ so a push or stop() between the empty pump and the
        // wait cannot be missed (see submitGroup() and stop()).
        s.parked.store(1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (s.ring.sizeApprox() == 0 &&
            running_.load(std::memory_order_relaxed))
            s.parked.wait(1, std::memory_order_relaxed);
        s.parked.store(0, std::memory_order_relaxed);
    }
    // Graceful drain: decode whatever is still queued.
    flushShard(shard, now_());
}

void
DecodeFleet::start()
{
    if (running_.exchange(true))
        return;
    threads_.reserve(config_.shards);
    for (unsigned i = 0; i < config_.shards; i++)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

void
DecodeFleet::stop()
{
    if (!running_.exchange(false))
        return;
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (auto &s : shards_)
        wakeIfParked(*s);
    for (auto &t : threads_)
        t.join();
    threads_.clear();
}

void
DecodeFleet::writeMetrics(telemetry::PrometheusWriter &w) const
{
    using telemetry::PromLabels;
    w.counter("astrea_fleet_connections_total",
              "Fleet ingest connections accepted",
              connectionsTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_fleet_frames_total",
              "Syndrome frames received on the fleet ingest port",
              framesTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_fleet_malformed_frames_total",
              "Malformed/unparseable frames (connection closed)",
              malformedTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_fleet_enqueued_total",
              "Shots admitted into shard rings",
              enqueuedTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_fleet_shed_total",
              "Shots shed by admission control (includes ring-full)",
              shedTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_fleet_ring_full_total",
              "Shots rejected because the shard ring was full",
              ringFullTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_fleet_coalesced_batches_total",
              "decodeBatch calls issued by shard workers",
              batchesTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_fleet_decoded_shots_total",
              "Shots decoded through the fleet path",
              decodedTotal_.load(std::memory_order_relaxed));

    w.family("astrea_fleet_queue_depth", "gauge",
             "Approximate shard ring occupancy");
    for (unsigned i = 0; i < config_.shards; i++) {
        w.sample("astrea_fleet_queue_depth",
                 static_cast<double>(queueDepth(i)),
                 PromLabels{{"shard", std::to_string(i)}});
    }
}

void
DecodeFleet::writeStatusz(telemetry::JsonWriter &w) const
{
    w.kv("shards", uint64_t{config_.shards});
    w.kv("ring_capacity",
         static_cast<uint64_t>(shards_[0]->ring.capacity()));
    w.kv("max_batch", static_cast<uint64_t>(config_.maxBatch));
    w.kv("shed_low_watermark", config_.shedLowWatermark);
    w.kv("shed_high_watermark", config_.shedHighWatermark);
    w.kv("max_priority", uint64_t{config_.maxPriority});
    w.kv("connections", connectionsTotal_.load(std::memory_order_relaxed));
    w.kv("frames", framesTotal_.load(std::memory_order_relaxed));
    w.kv("malformed_frames",
         malformedTotal_.load(std::memory_order_relaxed));
    w.kv("enqueued", enqueuedTotal_.load(std::memory_order_relaxed));
    w.kv("shed", shedTotal_.load(std::memory_order_relaxed));
    w.kv("ring_full", ringFullTotal_.load(std::memory_order_relaxed));
    w.kv("coalesced_batches",
         batchesTotal_.load(std::memory_order_relaxed));
    w.kv("decoded_shots",
         decodedTotal_.load(std::memory_order_relaxed));
    w.key("queue_depths").beginArray();
    for (unsigned i = 0; i < config_.shards; i++)
        w.value(static_cast<uint64_t>(queueDepth(i)));
    w.endArray();
}

} // namespace astrea

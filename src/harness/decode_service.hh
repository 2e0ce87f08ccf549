/**
 * @file
 * Live decode service: a continuous streaming memory-experiment
 * workload with scrapeable health (`astrea_cli serve`).
 *
 * The paper's premise is a decoder that keeps up with syndromes
 * arriving every 1 us, indefinitely (Sec. 3.4) — a deployed decoder is
 * a long-running service whose *current* health matters, not a batch
 * job summarized afterwards. DecodeServiceCore runs the same shot loop
 * as runMemoryExperiment() but forever, and layers three live views on
 * top of the since-start telemetry registry:
 *
 *  - rolling windows (telemetry/rolling_window.hh): decode rate,
 *    give-up rate, deadline-miss fraction and latency percentiles over
 *    the last N seconds rather than since process start;
 *  - an SLO tracker: the fraction of decodes exceeding the modeled
 *    1 us cycle budget, expressed as fast/slow burn rates against the
 *    configured SLO target (burn rate 1.0 = exactly consuming the
 *    error budget; >1 = on track to violate);
 *  - a syndrome-drift monitor: a chi-square distance between the
 *    recent Hamming-weight histogram and a warm-up baseline — the
 *    online counterpart of a capture's post-mortem view. A
 *    rising physical error rate shows up here long before the logical
 *    error rate moves.
 *
 * DecodeServiceCore is deliberately thread-agnostic and clock-
 * injectable: tests call decodeOnce() synchronously with a fake tick
 * and get deterministic scrapes. DecodeService adds the worker
 * threads and the HTTP endpoints (/metrics Prometheus exposition,
 * /statusz JSON snapshot, /healthz probe).
 */

#ifndef ASTREA_HARNESS_DECODE_SERVICE_HH
#define ASTREA_HARNESS_DECODE_SERVICE_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "audit/auditor.hh"
#include "harness/block_engine.hh"
#include "harness/fleet.hh"
#include "harness/memory_experiment.hh"
#include "net/http_server.hh"
#include "telemetry/rolling_window.hh"

namespace astrea
{

namespace net
{
class FleetServer;
}

/** Static configuration of one decode service. */
struct ServeConfig
{
    uint32_t distance = 5;
    uint32_t rounds = 0;  ///< 0 = distance rounds.
    double physicalErrorRate = 1e-3;
    /** Any registry name (see `astrea_cli list-decoders`). */
    std::string decoder = "astrea";
    unsigned workers = 2;
    uint64_t seed = 1;
    /** Shots each worker samples and decodes per batch-path call.
     *  One LwtTileBlock bucket group, so the service's coalesced
     *  arrivals fill the wide decode path without a re-layout. */
    uint64_t batchShots = 32;

    /** SLO: decodes must finish within this budget... */
    double budgetNs = 1000.0;
    /** ...for at least this fraction of decodes. */
    double sloTarget = 0.999;

    /** Rolling window geometry: slots x length = the slow window. */
    uint64_t subWindowMillis = 1000;
    size_t subWindows = 15;
    /** Fast burn-rate window, in sub-windows. */
    size_t fastBurnSubWindows = 3;

    /** Drift monitor: baseline size, ring-slot size, ring length. */
    uint64_t warmupShots = 5000;
    uint64_t driftBucketShots = 1000;
    size_t driftRingSlots = 8;
    /** Chi-square distance (in [0,1]) that raises the drift alarm. */
    double driftThreshold = 0.05;

    /** Accuracy auditor (audit/auditor.hh): fraction of nontrivial
     *  decodes shadow re-decoded against the exact oracle; 0 = off. */
    double auditRate = 0.0;
    unsigned auditThreads = 1;
    uint64_t auditQueue = 1024;

    /** Tail-sampled per-decode tracing (telemetry/decode_trace.hh).
     *  Cheap enough to leave on: spans go to preallocated per-thread
     *  buffers and only tail-retained traces are published. */
    bool traceEnabled = true;
    /** Keep traces slower than this (ns); 0 = auto (rolling p99). */
    double traceTailNs = 0.0;
    /** Keep every Nth decode regardless; 0 disables head sampling. */
    uint64_t traceStride = 8192;
    /** TraceStore ring capacity (kept traces). */
    uint64_t traceRing = 1024;

    /** Sharded multi-stream ingest fleet (harness/fleet.hh). When
     *  enabled, a binary TCP front-end feeds real syndrome streams
     *  through the same SLO/burn-rate accounting as the synthetic
     *  workers (workers may be 0 to serve ingest traffic only). */
    bool fleetEnabled = false;
    FleetConfig fleet;
    std::string fleetBind = "127.0.0.1";
    uint16_t fleetPort = 0;  ///< 0 = ephemeral.
};

/**
 * Online syndrome-drift monitor. The first warmupShots Hamming
 * weights form a baseline distribution; after that, weights stream
 * into a ring of fixed-size buckets, and each completed bucket
 * recomputes the chi-square distance
 *
 *     chi2 = 1/2 * sum_h (p_h - q_h)^2 / (p_h + q_h)
 *
 * between the baseline (p) and the merged ring (q) — bounded in
 * [0, 1], zero iff identical. Crossing the threshold logs a warning
 * once (re-armed when the distance falls back under), so a drifting
 * device is loud in the service log exactly once per excursion.
 */
class SyndromeDriftMonitor
{
  public:
    SyndromeDriftMonitor(uint64_t warmup_shots, uint64_t bucket_shots,
                         size_t ring_slots, double threshold,
                         size_t max_hw = 64);

    /** Record one decode's syndrome Hamming weight. Thread-safe. */
    void record(size_t hw);

    /**
     * Record the weights hw_of(0), ..., hw_of(n - 1) in that order
     * under one lock, so the buckets rotate at the same weights as n
     * record() calls would rotate them. Thread-safe.
     */
    template <typename HwOf>
    void
    recordEach(size_t n, HwOf hw_of)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < n; i++)
            recordLocked(hw_of(i));
    }

    bool baselineReady() const;
    /** Latest distance (recomputed once per completed ring bucket). */
    double chiSquare() const;
    bool alarmed() const;
    double threshold() const { return threshold_; }

  private:
    void recordLocked(size_t hw);
    void rotateLocked();

    const uint64_t warmupShots_;
    const uint64_t bucketShots_;
    const double threshold_;

    mutable std::mutex mu_;
    Histogram baseline_;
    uint64_t baselineCount_ = 0;
    std::vector<Histogram> ring_;
    Histogram recent_;  ///< The merged ring, rebuilt by rotateLocked().
    size_t ringPos_ = 0;
    uint64_t bucketCount_ = 0;
    double lastChi_ = 0.0;
    bool alarmed_ = false;
};

/** Thread-agnostic service state; see file comment. */
class DecodeServiceCore
{
  public:
    explicit DecodeServiceCore(const ServeConfig &config);
    ~DecodeServiceCore();

    /** Per-worker decode state (decoder, shot stream). */
    struct Worker;

    std::unique_ptr<Worker> makeWorker(unsigned index);

    /** Sample one shot, decode it, account it. */
    void decodeOnce(Worker &w);

    /**
     * Batch path the worker threads run: sample the worker's next
     * `shots` shots and decode them on the block engine
     * (harness/block_engine.hh), then account each shot exactly as
     * decodeOnce() does. Workers take the blocks of one shot stream
     * from the seed, in claim order, so a lone worker decodes shots 0,
     * 1, 2, ... of it. Steady state allocates nothing per shot.
     */
    void decodeBatch(Worker &w, uint64_t shots);

    /** Tests inject a fake sub-window tick; default is wall-clock. */
    void setTickFunction(std::function<uint64_t()> tick);

    /** Prometheus text exposition (service families + registry).
     *  openmetrics additionally attaches trace-id exemplars to the
     *  latency histogram buckets and terminates with "# EOF". */
    std::string metricsText(bool openmetrics = false) const;
    /** JSON snapshot for /statusz (schema: tools/validate_report.py). */
    std::string statuszJson() const;

    void setHealthy(bool healthy) { healthy_ = healthy; }
    bool healthy() const { return healthy_; }

    uint64_t totalDecodes() const;
    const SyndromeDriftMonitor &drift() const { return drift_; }
    const ServeConfig &config() const { return config_; }

    /** The shadow accuracy auditor (always present; may be disabled). */
    AccuracyAuditor &audit() { return *audit_; }
    const AccuracyAuditor &audit() const { return *audit_; }

    /** Current sub-window tick (exposed for tests/uptime). */
    uint64_t currentTick() const { return tick_(); }

    /** The ingest fleet; null unless config.fleetEnabled. */
    DecodeFleet *fleet() { return fleet_.get(); }
    const DecodeFleet *fleet() const { return fleet_.get(); }

    /**
     * Account one fleet flush (jobs[i] decoded to results[i]) into the
     * same totals, rolling SLO windows and drift monitor the synthetic
     * workers feed (no logical-error accounting: wire shots carry no
     * ground truth). Reads the sub-window tick once, adds each counter
     * once, merges the flush's latencies into the rolling window as
     * one histogram and records its Hamming weights in order under one
     * drift-monitor lock, so every scrape reads what accounting the
     * shots one at a time would give. Installed as the fleet's flush
     * account hook; thread-safe.
     */
    void accountFleetFlush(std::span<const FleetJob> jobs,
                           std::span<const DecodeResult> results);

    /** accountFleetFlush() of a one-shot flush. */
    void accountFleetShot(size_t hw, double latency_ns, bool gave_up);

  private:
    double windowSeconds(size_t sub_windows) const;

    ServeConfig config_;
    DecoderFactory factory_;

    std::shared_ptr<const ExperimentContext> ctx_;

    std::unique_ptr<AccuracyAuditor> audit_;
    std::unique_ptr<DecodeFleet> fleet_;

    std::function<uint64_t()> tick_;

    std::atomic<uint64_t> decodesTotal_{0};
    std::atomic<uint64_t> nontrivialTotal_{0};
    std::atomic<uint64_t> logicalErrorsTotal_{0};
    std::atomic<uint64_t> giveUpsTotal_{0};
    std::atomic<uint64_t> deadlineMissesTotal_{0};
    std::atomic<uint64_t> batchesDone_{0};
    std::atomic<bool> healthy_{true};
    /** The next block of the shot stream a synthetic worker claims. */
    std::atomic<uint64_t> nextBlock_{0};

    telemetry::RollingCounter decodesWin_;
    telemetry::RollingCounter logicalErrorsWin_;
    telemetry::RollingCounter giveUpsWin_;
    telemetry::RollingCounter missesWin_;
    telemetry::RollingLatency latencyWin_;

    SyndromeDriftMonitor drift_;
};

/** makeWorker()'s opaque state, public so the CLI can embed workers. */
struct DecodeServiceCore::Worker
{
    Worker(uint64_t seed, unsigned index, std::unique_ptr<Decoder> d)
        : decoder(std::move(d)), stream(seed, UINT64_MAX, index)
    {
    }

    std::unique_ptr<Decoder> decoder;
    /** The block of the service's shot stream this worker holds. */
    ShotStream stream;
};

/**
 * The full service: core + worker threads + HTTP endpoints. start()
 * binds and launches; stop() (or destruction) joins everything.
 */
class DecodeService
{
  public:
    explicit DecodeService(const ServeConfig &config);
    ~DecodeService();

    /** Launch workers and the HTTP server; false + *error on failure. */
    bool start(const std::string &bind_addr, uint16_t port,
               std::string *error);

    void stop();

    uint16_t port() const { return http_.port(); }
    DecodeServiceCore &core() { return core_; }
    const DecodeServiceCore &core() const { return core_; }

    /** The fleet ingest port; 0 unless the fleet is running. */
    uint16_t fleetPort() const;

  private:
    DecodeServiceCore core_;
    net::HttpServer http_;
    std::unique_ptr<net::FleetServer> fleetServer_;
    std::vector<std::thread> threads_;
    std::atomic<bool> running_{false};
    std::atomic<unsigned> activeWorkers_{0};
};

/** Factory-name lookup shared by serve and tests ("" on success). */
std::string resolveServeDecoder(const ServeConfig &config,
                                DecoderFactory *out);

} // namespace astrea

#endif // ASTREA_HARNESS_DECODE_SERVICE_HH

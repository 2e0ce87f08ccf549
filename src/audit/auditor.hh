/**
 * @file
 * Online accuracy auditor: shadow re-decoding against an exact oracle.
 *
 * The serve/telemetry stack observes latency, throughput and drift,
 * but nothing in production says whether the decoder's matchings are
 * actually *optimal*. The auditor closes that gap on live traffic: a
 * configurable fraction of decodes is sampled off the hot path into a
 * bounded lock-free queue (audit/audit_queue.hh) and re-decoded on a
 * background pool against a reference oracle —
 *
 *   - the exact bitmask-DP matcher (matching/dp_matcher.hh) up to
 *     kOracleDpMaxHw defects, and
 *   - blossom (matching/blossom.hh blossomMatchWithBoundary) above —
 *
 * in the production decoder's own weight domain (quantized 1/8-decade
 * GWT weights for the hardware decoders, exact decade weights for the
 * software baseline). Each audited shot is classified by its weight
 * first, as
 *
 *   optimal             production weight == oracle weight, whatever
 *                       the correction (an equal-weight tie may
 *                       differ in parity),
 *   suboptimal          weight gap > 0 but same logical correction,
 *   observable-mismatch weight gap > 0 and a different logical
 *                       correction than the oracle's,
 *
 * and give-ups sampled for audit are always oracle-decoded so the
 * report can distinguish recoverable give-ups from shots the oracle
 * also gets wrong. Observable-mismatches write a capture through the
 * trace store (telemetry/trace_store.hh) for replay forensics.
 *
 * Hot-path contract: offer() is one relaxed fetch_add when the shot is
 * not sampled, and a bounded-queue copy with drop-not-block semantics
 * when it is; it never blocks and never allocates (tests/alloc_test.cc
 * asserts zero steady-state allocations on the enqueue path).
 *
 * Knobs (common/env.hh): ASTREA_AUDIT_RATE, ASTREA_AUDIT_THREADS,
 * ASTREA_AUDIT_QUEUE, ASTREA_AUDIT_EXACT.
 */

#ifndef ASTREA_AUDIT_AUDITOR_HH
#define ASTREA_AUDIT_AUDITOR_HH

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "audit/audit_queue.hh"
#include "decoders/decoder.hh"
#include "graph/weight_table.hh"
#include "telemetry/json.hh"
#include "telemetry/prometheus.hh"

namespace astrea
{

namespace telemetry
{
struct TraceAuditVerdict;
} // namespace telemetry

/** Static auditor configuration. */
struct AuditConfig
{
    /** Fraction of nontrivial decodes audited; 0 disables. */
    double sampleRate = 0.0;
    /** Bounded queue capacity (rounded up to a power of two). */
    size_t queueCapacity = 1024;
    /** Background audit pool size. */
    unsigned threads = 1;
    /**
     * Oracle weight domain: true re-decodes over the quantized
     * 1/8-decade GWT weights (what the hardware decoders optimize),
     * false over the exact decade weights (the software baseline).
     */
    bool quantizedWeights = true;

    /** Overlay ASTREA_AUDIT_* environment knobs onto base. */
    static AuditConfig fromEnv(AuditConfig base);
    static AuditConfig fromEnv();
};

/**
 * Largest HW the oracle matches with the bitmask DP; blossom takes
 * every larger one. It is where the two engines' mean times per
 * re-decode cross: 200 d = 9, p = 3e-3 shots per HW, on a 4-vCPU
 * AVX-512 Xeon, in microseconds, quantized / exact weights:
 *
 *   HW       8          9            10           11           16
 *   DP       4.2 / 4.1  8.7 / 10.4   19.1 / 17.8  46.9 / 38.5  1907 / 1809
 *   blossom  6.1 / 6.7  10.6 / 12.6  10.4 / 10.3  17.6 / 16.5  29.8 / 30.6
 *
 * A second run put every HW on the same side of the crossover.
 */
constexpr uint32_t kOracleDpMaxHw = 9;

/** Gap histogram geometry: 1/8-decade bins 0..31, then overflow. */
constexpr size_t kAuditGapBuckets = 33;

/** Shadow re-decoding auditor; see file comment. */
class AccuracyAuditor
{
  public:
    /**
     * @param gwt Weight table the oracle decodes against; must stay
     *        alive for the auditor's lifetime (or pass keepalive).
     * @param config Static knobs; sampleRate <= 0 disables sampling.
     * @param keepalive Optional owner of gwt (e.g. the experiment
     *        context), pinned for the auditor's lifetime.
     */
    AccuracyAuditor(const GlobalWeightTable &gwt,
                    const AuditConfig &config,
                    std::shared_ptr<const void> keepalive = nullptr);
    ~AccuracyAuditor();

    bool enabled() const { return stride_ > 0; }
    const AuditConfig &config() const { return config_; }

    /**
     * Hot-path sampling hook: decide whether this decode is audited
     * (every stride-th shot by its global index `shot`, so the same
     * shots at any thread count; give-ups are always taken) and, if
     * so, copy it into the queue. Never blocks or allocates;
     * returns true when the shot was enqueued. A nonzero trace_id
     * rides along so the verdict can annotate the kept trace
     * (telemetry/trace_store.hh) when the audit completes.
     */
    bool offer(uint64_t shot, uint32_t worker,
               std::span<const uint32_t> defects,
               const DecodeResult &result, uint64_t actual_obs,
               uint64_t trace_id = 0);

    /** Launch the background audit pool (no-op when disabled). */
    void start();
    /** Stop the pool and drain everything still queued. */
    void stop();
    /** Synchronously audit queued samples here; returns count. */
    size_t drainNow();

    /** One oracle re-decode. */
    struct Oracle
    {
        double weight = 0.0;
        uint64_t obsMask = 0;
        bool usedDp = false;  ///< DP oracle vs blossom.
        /** The matching, as MatchingSolution::pairs. */
        std::vector<std::pair<int, int>> pairs;
    };
    /**
     * The oracle's matching of `defects` over `gwt` in one weight
     * domain: the DP up to kOracleDpMaxHw defects, blossom above.
     * The auditor's re-decodes and replay's narration both come from
     * here, so replay re-derives the matching the auditor judged by.
     */
    static Oracle oracleMatch(const GlobalWeightTable &gwt,
                              std::span<const uint32_t> defects,
                              bool quantized);
    /** oracleMatch() over this auditor's table and weight domain. */
    Oracle oracleDecode(std::span<const uint32_t> defects) const;

    /** Point-in-time copy of every audit counter. */
    struct Snapshot
    {
        uint64_t offered = 0;   ///< offer() calls seen.
        uint64_t sampled = 0;   ///< Selected for audit (incl. drops).
        uint64_t enqueued = 0;
        uint64_t completed = 0;
        uint64_t queueDrops = 0;
        uint64_t oversizeDrops = 0;
        uint64_t optimal = 0;
        uint64_t suboptimal = 0;
        uint64_t observableMismatches = 0;
        uint64_t weightUnderruns = 0;
        uint64_t giveUpsOffered = 0;
        uint64_t giveUpsAudited = 0;
        uint64_t giveUpOracleSuccess = 0;
        uint64_t dpDecodes = 0;
        uint64_t mwpmDecodes = 0;
        uint64_t captures = 0;
        size_t queueDepth = 0;
        size_t queueCapacity = 0;

        struct HwStats
        {
            uint64_t audited = 0;
            uint64_t optimal = 0;
        };
        std::array<HwStats, kAuditMaxDefects + 1> byHw{};

        std::array<uint64_t, kAuditGapBuckets> gapBuckets{};
        double gapSumDecades = 0.0;
        uint64_t gapCount = 0;

        /** Overall match-optimality rate over classified audits. */
        double optimalityRate() const;
        /** Fraction of offered give-ups that were oracle-decoded. */
        double giveUpCoverage() const;
    };
    Snapshot snapshot() const;

    /** Append astrea_audit_* families to a /metrics exposition. */
    void writeMetrics(telemetry::PrometheusWriter &w) const;
    /** Write the /statusz "audit" object's key/value pairs into an
     *  already-open JSON object. */
    void writeStatusz(telemetry::JsonWriter &w) const;

  private:
    void auditOne(const AuditSample &s);
    /** Capture an observable mismatch when a capture is armed. */
    void captureMismatch(const AuditSample &s,
                         const telemetry::TraceAuditVerdict &v);

    AuditConfig config_;
    const GlobalWeightTable &gwt_;
    std::shared_ptr<const void> keepalive_;
    uint64_t stride_ = 0;  ///< Audit every stride-th shot; 0 = off.
    double weightTol_ = 1e-9;

    std::unique_ptr<AuditQueue> queue_;
    std::vector<std::thread> pool_;
    std::atomic<bool> running_{false};

    std::atomic<uint64_t> offered_{0};
    std::atomic<uint64_t> sampled_{0};
    std::atomic<uint64_t> enqueued_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> queueDrops_{0};
    std::atomic<uint64_t> oversizeDrops_{0};
    std::atomic<uint64_t> optimal_{0};
    std::atomic<uint64_t> suboptimal_{0};
    std::atomic<uint64_t> observableMismatches_{0};
    std::atomic<uint64_t> weightUnderruns_{0};
    std::atomic<uint64_t> giveUpsOffered_{0};
    std::atomic<uint64_t> giveUpsAudited_{0};
    std::atomic<uint64_t> giveUpOracleSuccess_{0};
    std::atomic<uint64_t> dpDecodes_{0};
    std::atomic<uint64_t> mwpmDecodes_{0};
    std::atomic<uint64_t> captures_{0};

    struct HwCell
    {
        std::atomic<uint64_t> audited{0};
        std::atomic<uint64_t> optimal{0};
    };
    std::array<HwCell, kAuditMaxDefects + 1> byHw_;

    std::array<std::atomic<uint64_t>, kAuditGapBuckets> gapBuckets_;
    std::atomic<uint64_t> gapSumMilli_{0};  ///< Gap sum, millidecades.
    std::atomic<uint64_t> gapCount_{0};
};

} // namespace astrea

#endif // ASTREA_AUDIT_AUDITOR_HH

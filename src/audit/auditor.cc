#include "audit/auditor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/env.hh"
#include "common/weight.hh"
#include "matching/blossom.hh"
#include "matching/dp_matcher.hh"
#include "telemetry/trace_store.hh"

namespace astrea
{

AuditConfig
AuditConfig::fromEnv(AuditConfig base)
{
    base.sampleRate = env::getDouble("ASTREA_AUDIT_RATE",
                                     base.sampleRate);
    base.queueCapacity = static_cast<size_t>(env::getUint(
        "ASTREA_AUDIT_QUEUE", base.queueCapacity, 2));
    base.threads = static_cast<unsigned>(env::getUint(
        "ASTREA_AUDIT_THREADS", base.threads, 1));
    if (env::getBool("ASTREA_AUDIT_EXACT", !base.quantizedWeights))
        base.quantizedWeights = false;
    return base;
}

AuditConfig
AuditConfig::fromEnv()
{
    return fromEnv(AuditConfig{});
}

AccuracyAuditor::AccuracyAuditor(const GlobalWeightTable &gwt,
                                 const AuditConfig &config,
                                 std::shared_ptr<const void> keepalive)
    : config_(config), gwt_(gwt), keepalive_(std::move(keepalive))
{
    config_.threads = std::max(1u, config_.threads);
    if (config_.sampleRate > 0.0) {
        stride_ = config_.sampleRate >= 1.0
                      ? 1
                      : static_cast<uint64_t>(
                            std::llround(1.0 / config_.sampleRate));
        stride_ = std::max<uint64_t>(1, stride_);
        queue_ = std::make_unique<AuditQueue>(config_.queueCapacity);
    }
    // Quantized sums are multiples of 1/8 decade and exactly
    // representable, so equality needs no slack; exact decade sums go
    // through llround(1e6 *) fixed point in the MWPM baseline, so a
    // micro-decade of slack absorbs the rounding.
    weightTol_ = config_.quantizedWeights ? 1e-9 : 1e-6;
    for (auto &b : gapBuckets_)
        b.store(0, std::memory_order_relaxed);
}

AccuracyAuditor::~AccuracyAuditor()
{
    stop();
}

bool
AccuracyAuditor::offer(uint64_t shot, uint32_t worker,
                       std::span<const uint32_t> defects,
                       const DecodeResult &result, uint64_t actual_obs,
                       uint64_t trace_id)
{
    if (stride_ == 0 || defects.empty())
        return false;
    offered_.fetch_add(1, std::memory_order_relaxed);
    if (result.gaveUp)
        giveUpsOffered_.fetch_add(1, std::memory_order_relaxed);

    // Every stride-th shot by its global index, so the audited shots
    // are the same at every thread count; give-ups are always taken so
    // the give-up audit covers every one the queue has room for.
    if (!result.gaveUp && (shot % stride_) != 0)
        return false;
    sampled_.fetch_add(1, std::memory_order_relaxed);

    if (defects.size() > kAuditMaxDefects) {
        oversizeDrops_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    AuditSample s;
    s.shot = shot;
    s.worker = worker;
    s.hw = static_cast<uint32_t>(defects.size());
    s.prodObs = result.obsMask;
    s.actualObs = actual_obs;
    s.prodWeight = result.matchingWeight;
    s.latencyNs = result.latencyNs;
    s.cycles = result.cycles;
    s.gaveUp = result.gaveUp;
    s.traceId = trace_id;
    std::copy(defects.begin(), defects.end(), s.defects.begin());

    if (!queue_->tryPush(s)) {
        queueDrops_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

AccuracyAuditor::Oracle
AccuracyAuditor::oracleMatch(const GlobalWeightTable &gwt,
                             std::span<const uint32_t> defects,
                             bool quantized)
{
    Oracle o;
    const int n = static_cast<int>(defects.size());
    auto defect = [&](int i) { return defects[static_cast<size_t>(i)]; };
    // Decade weight of a pair, or of the boundary when i == j. The
    // quantized 255 sentinel stays finite, exactly as the Astrea LWT
    // tile treats it: the hardware compares raw byte weights.
    auto decades = [&](uint32_t a, uint32_t b) {
        return quantized ? static_cast<double>(gwt.pairWeight(a, b)) /
                               kWeightScale
                         : gwt.exactWeight(a, b);
    };

    o.usedDp = static_cast<uint32_t>(n) <= kOracleDpMaxHw;
    if (o.usedDp) {
        MatchingSolution sol = dpMatchWithBoundary(
            n, [&](int i, int j) { return decades(defect(i), defect(j)); },
            [&](int i) { return decades(defect(i), defect(i)); });
        o.pairs = std::move(sol.pairs);
    } else {
        auto fixed = [&](uint32_t a, uint32_t b) -> int64_t {
            return quantized ? int64_t{gwt.pairWeight(a, b)}
                             : decadesToFixedPoint(gwt.exactWeight(a, b));
        };
        o.pairs = blossomMatchWithBoundary(
                      n,
                      [&](int i, int j) {
                          return fixed(defect(i), defect(j));
                      },
                      [&](int i) { return fixed(defect(i), defect(i)); })
                      .pairs;
    }
    for (auto [i, j] : o.pairs) {
        const uint32_t a = defect(i);
        const uint32_t b = j < 0 ? a : defect(j);
        o.weight += decades(a, b);
        o.obsMask ^= gwt.pairObs(a, b);
    }
    return o;
}

AccuracyAuditor::Oracle
AccuracyAuditor::oracleDecode(std::span<const uint32_t> defects) const
{
    return oracleMatch(gwt_, defects, config_.quantizedWeights);
}

void
AccuracyAuditor::captureMismatch(const AuditSample &s,
                                 const telemetry::TraceAuditVerdict &v)
{
    // The mismatch is audited on the pool after its stream has moved
    // on, so the capture holds this shot alone.
    telemetry::TraceStore &store = telemetry::TraceStore::global();
    if (!store.captureArmed())
        return;
    telemetry::StoredTrace t;
    t.traceId = s.traceId;
    t.shot = s.shot;
    t.stream = s.worker;
    t.hw = s.hw;
    t.latencyNs = s.latencyNs;
    t.cycles = s.cycles;
    t.matchingWeight = s.prodWeight;
    t.obsMask = s.prodObs;
    t.actualObs = s.actualObs;
    t.gaveUp = s.gaveUp;
    t.logicalError = s.prodObs != s.actualObs;
    t.audited = true;
    t.auditDone = true;
    t.audit = v;
    if (store.capture(t, {s.defects.data(), s.hw}, "audit_mismatch"))
        captures_.fetch_add(1, std::memory_order_relaxed);
}

void
AccuracyAuditor::auditOne(const AuditSample &s)
{
    std::span<const uint32_t> defects(s.defects.data(), s.hw);
    Oracle oracle = oracleDecode(defects);
    (oracle.usedDp ? dpDecodes_ : mwpmDecodes_)
        .fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    telemetry::TraceAuditVerdict verdict;
    verdict.oracleWeight = oracle.weight;
    verdict.oracleObs = oracle.obsMask;
    verdict.oracleDp = oracle.usedDp;
    verdict.quantized = config_.quantizedWeights;

    if (s.gaveUp) {
        // A give-up predicts no flip; the oracle audit asks whether an
        // exact matcher would have decoded the shot correctly.
        giveUpsAudited_.fetch_add(1, std::memory_order_relaxed);
        if (oracle.obsMask == s.actualObs)
            giveUpOracleSuccess_.fetch_add(1,
                                           std::memory_order_relaxed);
        if (s.traceId != 0)
            telemetry::TraceStore::global().annotateAudit(s.traceId,
                                                          verdict);
        return;
    }

    const size_t hw = std::min<size_t>(s.hw, kAuditMaxDefects);
    byHw_[hw].audited.fetch_add(1, std::memory_order_relaxed);

    // Weight first: two optimal matchings may differ in parity (an
    // equal-weight tie), so a matching as light as the oracle's is
    // optimal whatever its correction. Only a heavier matching with a
    // different correction is an observable mismatch.
    double gap = s.prodWeight - oracle.weight;
    if (gap < -weightTol_) {
        // Production claims a lighter matching than the exact oracle
        // found — a weight-domain mismatch (or a production bug), not
        // a quality signal. Counted separately, classified optimal.
        weightUnderruns_.fetch_add(1, std::memory_order_relaxed);
        gap = 0.0;
    }
    if (gap > weightTol_ && s.prodObs != oracle.obsMask) {
        observableMismatches_.fetch_add(1, std::memory_order_relaxed);
        verdict.mismatch = true;
        captureMismatch(s, verdict);
        if (s.traceId != 0)
            telemetry::TraceStore::global().annotateAudit(s.traceId,
                                                          verdict);
        return;
    }
    if (gap <= weightTol_) {
        optimal_.fetch_add(1, std::memory_order_relaxed);
        byHw_[hw].optimal.fetch_add(1, std::memory_order_relaxed);
        gap = 0.0;
    } else {
        suboptimal_.fetch_add(1, std::memory_order_relaxed);
    }

    if (s.traceId != 0) {
        verdict.gapDecades = gap;
        telemetry::TraceStore::global().annotateAudit(s.traceId,
                                                      verdict);
    }

    size_t bucket = static_cast<size_t>(
        std::llround(gap * kWeightScale));
    bucket = std::min(bucket, kAuditGapBuckets - 1);
    gapBuckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    gapSumMilli_.fetch_add(
        static_cast<uint64_t>(std::llround(gap * 1000.0)),
        std::memory_order_relaxed);
    gapCount_.fetch_add(1, std::memory_order_relaxed);
}

void
AccuracyAuditor::start()
{
    if (stride_ == 0 || running_.load())
        return;
    running_ = true;
    pool_.reserve(config_.threads);
    for (unsigned t = 0; t < config_.threads; t++) {
        pool_.emplace_back([this] {
            AuditSample s;
            while (running_.load(std::memory_order_relaxed)) {
                if (queue_->tryPop(s))
                    auditOne(s);
                else
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(500));
            }
        });
    }
}

void
AccuracyAuditor::stop()
{
    running_ = false;
    for (auto &t : pool_)
        t.join();
    pool_.clear();
    drainNow();
}

size_t
AccuracyAuditor::drainNow()
{
    if (!queue_)
        return 0;
    size_t n = 0;
    AuditSample s;
    while (queue_->tryPop(s)) {
        auditOne(s);
        n++;
    }
    return n;
}

double
AccuracyAuditor::Snapshot::optimalityRate() const
{
    const uint64_t classified =
        optimal + suboptimal + observableMismatches;
    return classified == 0 ? 0.0
                           : static_cast<double>(optimal) /
                                 static_cast<double>(classified);
}

double
AccuracyAuditor::Snapshot::giveUpCoverage() const
{
    return giveUpsOffered == 0
               ? 0.0
               : static_cast<double>(giveUpsAudited) /
                     static_cast<double>(giveUpsOffered);
}

AccuracyAuditor::Snapshot
AccuracyAuditor::snapshot() const
{
    Snapshot s;
    s.offered = offered_.load(std::memory_order_relaxed);
    s.sampled = sampled_.load(std::memory_order_relaxed);
    s.enqueued = enqueued_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.queueDrops = queueDrops_.load(std::memory_order_relaxed);
    s.oversizeDrops = oversizeDrops_.load(std::memory_order_relaxed);
    s.optimal = optimal_.load(std::memory_order_relaxed);
    s.suboptimal = suboptimal_.load(std::memory_order_relaxed);
    s.observableMismatches =
        observableMismatches_.load(std::memory_order_relaxed);
    s.weightUnderruns =
        weightUnderruns_.load(std::memory_order_relaxed);
    s.giveUpsOffered = giveUpsOffered_.load(std::memory_order_relaxed);
    s.giveUpsAudited = giveUpsAudited_.load(std::memory_order_relaxed);
    s.giveUpOracleSuccess =
        giveUpOracleSuccess_.load(std::memory_order_relaxed);
    s.dpDecodes = dpDecodes_.load(std::memory_order_relaxed);
    s.mwpmDecodes = mwpmDecodes_.load(std::memory_order_relaxed);
    s.captures = captures_.load(std::memory_order_relaxed);
    s.queueDepth = queue_ ? queue_->sizeApprox() : 0;
    s.queueCapacity = queue_ ? queue_->capacity() : 0;
    for (size_t h = 0; h <= kAuditMaxDefects; h++) {
        s.byHw[h].audited =
            byHw_[h].audited.load(std::memory_order_relaxed);
        s.byHw[h].optimal =
            byHw_[h].optimal.load(std::memory_order_relaxed);
    }
    for (size_t b = 0; b < kAuditGapBuckets; b++)
        s.gapBuckets[b] =
            gapBuckets_[b].load(std::memory_order_relaxed);
    s.gapSumDecades =
        static_cast<double>(
            gapSumMilli_.load(std::memory_order_relaxed)) /
        1000.0;
    s.gapCount = gapCount_.load(std::memory_order_relaxed);
    return s;
}

void
AccuracyAuditor::writeMetrics(telemetry::PrometheusWriter &w) const
{
    using telemetry::PromLabels;
    const Snapshot s = snapshot();

    w.gauge("astrea_audit_enabled",
            "1 while shadow accuracy auditing is sampling decodes",
            enabled() ? 1.0 : 0.0);
    w.gauge("astrea_audit_sample_rate",
            "Configured fraction of nontrivial decodes audited",
            config_.sampleRate);
    w.counter("astrea_audit_sampled_total",
              "Decodes selected for audit (including drops)",
              s.sampled);
    w.counter("astrea_audit_completed_total",
              "Decodes re-decoded against the oracle", s.completed);
    w.gauge("astrea_audit_queue_depth",
            "Audit samples currently queued",
            static_cast<double>(s.queueDepth));
    w.gauge("astrea_audit_queue_capacity", "Audit queue capacity",
            static_cast<double>(s.queueCapacity));
    w.counter("astrea_audit_queue_drops_total",
              "Samples dropped because the audit queue was full",
              s.queueDrops);
    w.counter("astrea_audit_oversize_drops_total",
              "Samples dropped because HW exceeded the sample cap",
              s.oversizeDrops);

    w.counter("astrea_audit_optimal_total",
              "Audited decodes whose matching weight equals the "
              "oracle's",
              s.optimal);
    w.counter("astrea_audit_suboptimal_total",
              "Audited decodes with a positive weight gap but the "
              "same logical correction",
              s.suboptimal);
    w.counter("astrea_audit_observable_mismatches_total",
              "Audited decodes whose logical correction differs from "
              "the oracle's",
              s.observableMismatches);
    w.counter("astrea_audit_weight_underruns_total",
              "Audited decodes reporting a lighter weight than the "
              "oracle (weight-domain mismatch)",
              s.weightUnderruns);

    w.family("astrea_audit_optimality_rate", "gauge",
             "Match-optimality rate per syndrome Hamming weight "
             "(hw=\"all\" aggregates)");
    w.sample("astrea_audit_optimality_rate", s.optimalityRate(),
             PromLabels{{"hw", "all"}});
    for (size_t h = 0; h <= kAuditMaxDefects; h++) {
        if (s.byHw[h].audited == 0)
            continue;
        w.sample("astrea_audit_optimality_rate",
                 static_cast<double>(s.byHw[h].optimal) /
                     static_cast<double>(s.byHw[h].audited),
                 PromLabels{{"hw", std::to_string(h)}});
    }

    {
        std::vector<std::pair<double, uint64_t>> cumulative;
        uint64_t cum = 0;
        size_t top = 0;
        for (size_t b = 0; b + 1 < kAuditGapBuckets; b++) {
            if (s.gapBuckets[b])
                top = b;
        }
        for (size_t b = 0; b <= top; b++) {
            cum += s.gapBuckets[b];
            cumulative.emplace_back(
                static_cast<double>(b) / kWeightScale, cum);
        }
        w.histogram("astrea_audit_weight_gap_decades",
                    "Suboptimality weight gap vs the oracle, in "
                    "decades (1/8-decade bins)",
                    cumulative, s.gapCount, s.gapSumDecades);
    }

    w.counter("astrea_audit_give_ups_audited_total",
              "Give-ups re-decoded by the oracle", s.giveUpsAudited);
    w.counter("astrea_audit_give_up_oracle_success_total",
              "Audited give-ups the oracle would have decoded "
              "correctly",
              s.giveUpOracleSuccess);
    w.gauge("astrea_audit_give_up_coverage",
            "Fraction of give-ups seen by offer() that were audited",
            s.giveUpCoverage());

    w.family("astrea_audit_oracle_decodes_total", "counter",
             "Oracle re-decodes by oracle kind");
    w.sample("astrea_audit_oracle_decodes_total", s.dpDecodes,
             PromLabels{{"oracle", "dp"}});
    w.sample("astrea_audit_oracle_decodes_total", s.mwpmDecodes,
             PromLabels{{"oracle", "mwpm"}});

    w.counter("astrea_audit_captures_total",
              "Captures written for observable mismatches", s.captures);
}

void
AccuracyAuditor::writeStatusz(telemetry::JsonWriter &w) const
{
    const Snapshot s = snapshot();
    w.kv("enabled", enabled());
    w.kv("rate", config_.sampleRate);
    w.kv("threads", uint64_t{config_.threads});
    w.kv("quantized", config_.quantizedWeights);
    w.kv("offered", s.offered);
    w.kv("sampled", s.sampled);
    w.kv("completed", s.completed);
    w.kv("queue_depth", uint64_t{s.queueDepth});
    w.kv("queue_capacity", uint64_t{s.queueCapacity});
    w.kv("queue_drops", s.queueDrops);
    w.kv("oversize_drops", s.oversizeDrops);
    w.kv("optimal", s.optimal);
    w.kv("suboptimal", s.suboptimal);
    w.kv("observable_mismatches", s.observableMismatches);
    w.kv("weight_underruns", s.weightUnderruns);
    w.kv("optimality_rate", s.optimalityRate());
    w.kv("mean_weight_gap_decades",
         s.gapCount == 0 ? 0.0
                         : s.gapSumDecades /
                               static_cast<double>(s.gapCount));
    w.kv("give_ups_offered", s.giveUpsOffered);
    w.kv("give_ups_audited", s.giveUpsAudited);
    w.kv("give_up_oracle_success", s.giveUpOracleSuccess);
    w.kv("give_up_coverage", s.giveUpCoverage());
    w.kv("captures", s.captures);
}

} // namespace astrea

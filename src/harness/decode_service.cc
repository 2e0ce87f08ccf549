#include "harness/decode_service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"
#include "net/fleet_server.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/json.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/prometheus.hh"
#include "telemetry/sampling_profiler.hh"
#include "telemetry/telemetry.hh"

namespace astrea
{

// ---------------------------------------------------------------------------
// SyndromeDriftMonitor

SyndromeDriftMonitor::SyndromeDriftMonitor(uint64_t warmup_shots,
                                           uint64_t bucket_shots,
                                           size_t ring_slots,
                                           double threshold,
                                           size_t max_hw)
    : warmupShots_(std::max<uint64_t>(1, warmup_shots)),
      bucketShots_(std::max<uint64_t>(1, bucket_shots)),
      threshold_(threshold), baseline_(max_hw), recent_(max_hw)
{
    ring_.assign(std::max<size_t>(1, ring_slots), Histogram(max_hw));
}

void
SyndromeDriftMonitor::record(size_t hw)
{
    std::lock_guard<std::mutex> lock(mu_);
    recordLocked(hw);
}

void
SyndromeDriftMonitor::recordLocked(size_t hw)
{
    if (baselineCount_ < warmupShots_) {
        baseline_.add(hw);
        baselineCount_++;
        return;
    }
    ring_[ringPos_].add(hw);
    bucketCount_++;
    if (bucketCount_ >= bucketShots_)
        rotateLocked();
}

void
SyndromeDriftMonitor::rotateLocked()
{
    bucketCount_ = 0;

    // Merge the ring (the just-completed bucket included) and compare
    // against the baseline: chi2 = 1/2 sum (p-q)^2/(p+q) over the
    // per-weight frequencies, overflow folded into the last term.
    // Merged into a member so the shard worker that completes a
    // bucket does not allocate.
    recent_.clear();
    for (const Histogram &h : ring_)
        recent_.merge(h);

    double chi = 0.0;
    if (recent_.total() > 0 && baseline_.total() > 0) {
        for (size_t k = 0; k <= baseline_.maxKey() + 1; k++) {
            double p = k <= baseline_.maxKey()
                           ? baseline_.frequency(k)
                           : static_cast<double>(baseline_.overflow()) /
                                 static_cast<double>(baseline_.total());
            double q = k <= recent_.maxKey()
                           ? recent_.frequency(k)
                           : static_cast<double>(recent_.overflow()) /
                                 static_cast<double>(recent_.total());
            if (p + q > 0.0)
                chi += (p - q) * (p - q) / (p + q);
        }
        chi *= 0.5;
    }
    lastChi_ = chi;

    if (chi >= threshold_ && !alarmed_) {
        alarmed_ = true;
        warn("syndrome drift: chi-square distance " +
             std::to_string(chi) + " crossed threshold " +
             std::to_string(threshold_) +
             " (recent Hamming-weight distribution departs from the "
             "warm-up baseline)");
    } else if (chi < threshold_) {
        alarmed_ = false;  // Re-arm; the next excursion logs again.
    }

    // Advance and clear the slot the next bucket streams into.
    ringPos_ = (ringPos_ + 1) % ring_.size();
    ring_[ringPos_].clear();
}

bool
SyndromeDriftMonitor::baselineReady() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return baselineCount_ >= warmupShots_;
}

double
SyndromeDriftMonitor::chiSquare() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lastChi_;
}

bool
SyndromeDriftMonitor::alarmed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return alarmed_;
}

// ---------------------------------------------------------------------------
// DecodeServiceCore

std::string
resolveServeDecoder(const ServeConfig &config, DecoderFactory *out)
{
    const DecoderRegistry &reg = DecoderRegistry::global();
    if (reg.canonicalName(config.decoder).empty()) {
        return "unknown decoder '" + config.decoder +
               "' (known: " + reg.knownNamesText() + ")";
    }
    *out = registryFactory(config.decoder);
    return "";
}

DecodeServiceCore::DecodeServiceCore(const ServeConfig &config)
    : config_(config), decodesWin_(config.subWindows),
      logicalErrorsWin_(config.subWindows),
      giveUpsWin_(config.subWindows), missesWin_(config.subWindows),
      latencyWin_(config.subWindows),
      drift_(config.warmupShots, config.driftBucketShots,
             config.driftRingSlots, config.driftThreshold)
{
    std::string err = resolveServeDecoder(config_, &factory_);
    if (!err.empty())
        fatal("decode service: " + err);

    ExperimentConfig ec;
    ec.distance = config_.distance;
    ec.rounds = config_.rounds;
    ec.physicalErrorRate = config_.physicalErrorRate;
    ctx_ = std::make_shared<const ExperimentContext>(ec);

    // The oracle audits in the production decoder's weight domain:
    // quantized GWT bytes for the hardware decoders (and wrappers
    // around them), exact decade weights for the software baselines.
    AuditConfig acfg;
    acfg.sampleRate = config_.auditRate;
    acfg.queueCapacity = static_cast<size_t>(
        std::max<uint64_t>(2, config_.auditQueue));
    acfg.threads = std::max(1u, config_.auditThreads);
    acfg.dpMaxHw = config_.auditDpMaxHw;
    const std::string canonical =
        DecoderRegistry::global().canonicalName(config_.decoder);
    for (const DecoderInfo &info :
         DecoderRegistry::global().listDecoders()) {
        if (info.name == canonical) {
            acfg.quantizedWeights =
                info.kind != DecoderKind::Software;
            break;
        }
    }
    audit_ = std::make_unique<AccuracyAuditor>(ctx_->gwt(), acfg,
                                               ctx_);

    // Tail-sampled per-decode tracing: install the retention policy
    // (explicit ServeConfig knobs win over ASTREA_TRACE_*; the CLI
    // defaults its flags from the environment) and size the store.
    telemetry::TraceRetentionConfig tc;
    tc.enabled = config_.traceEnabled;
    tc.tailThresholdNs = config_.traceTailNs;
    tc.headStride = config_.traceStride;
    telemetry::setTraceRetention(tc);
    telemetry::TraceStore::global().configure(static_cast<size_t>(
        std::max<uint64_t>(1, config_.traceRing)));

    // Install this workload's context/decoder descriptions so a
    // dumped trace or capture (give-up, logical error, audit
    // mismatch) embeds enough for `astrea_cli replay` to rebuild the
    // decode.
    auto probe = factory_(*ctx_);
    telemetry::TraceStore::global().setRunInfo(
        experimentConfigJson(ec), decoderDescriptionJson(*probe));

    if (config_.fleetEnabled) {
        fleet_ = std::make_unique<DecodeFleet>(config_.fleet, ctx_,
                                               factory_);
        fleet_->setFlushAccountHook(
            [this](std::span<const FleetJob> jobs,
                   std::span<const DecodeResult> results) {
                accountFleetFlush(jobs, results);
            });
    }

    const uint64_t sub_ms = std::max<uint64_t>(1,
                                               config_.subWindowMillis);
    const auto start = std::chrono::steady_clock::now();
    tick_ = [start, sub_ms] {
        auto elapsed = std::chrono::duration_cast<
            std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
        return static_cast<uint64_t>(elapsed.count()) / sub_ms;
    };
}

DecodeServiceCore::~DecodeServiceCore() = default;

std::shared_ptr<const ExperimentContext>
DecodeServiceCore::currentContext() const
{
    std::lock_guard<std::mutex> lock(ctxMu_);
    return ctx_;
}

void
DecodeServiceCore::setErrorRate(double p)
{
    ExperimentConfig ec;
    ec.distance = config_.distance;
    ec.rounds = config_.rounds;
    ec.physicalErrorRate = p;
    auto fresh = std::make_shared<const ExperimentContext>(ec);
    {
        std::lock_guard<std::mutex> lock(ctxMu_);
        ctx_ = fresh;
    }
    // Flush outstanding audits against the old table, then audit the
    // new workload against its own GWT. Audit counters carry over.
    audit_->rebind(fresh->gwt(), fresh);
    inform("decode service: physical error rate now " +
           std::to_string(p));
}

void
DecodeServiceCore::setTickFunction(std::function<uint64_t()> tick)
{
    tick_ = std::move(tick);
}

std::unique_ptr<DecodeServiceCore::Worker>
DecodeServiceCore::makeWorker(unsigned index)
{
    return std::make_unique<Worker>(config_.seed, index);
}

void
DecodeServiceCore::decodeOnce(Worker &w)
{
    decodeBatch(w, 1);
}

void
DecodeServiceCore::decodeBatch(Worker &w, uint64_t shots)
{
    auto ctx = currentContext();
    if (w.ctx.get() != ctx.get()) {
        // First shot, or the workload was reconfigured mid-run.
        w.ctx = ctx;
        w.decoder = factory_(*ctx);
    }

    for (uint64_t n = 0; shots > 0; shots -= n) {
        if (w.stream.remaining() == 0)
            w.stream.nextBlock(nextBlock_);  // An endless stream.
        n = std::min(shots, w.stream.remaining());
        w.stream.decode(*ctx, n, *w.decoder, config_.decoder.c_str(),
                        audit_.get(),
                        [this](uint64_t, telemetry::TraceShotOutcome &o) {
            if (o.hw == 0) {
                // A shot without defects is not decoded here: it takes
                // 0 ns and is neither a give-up nor a logical error.
                o = {.actualObs = o.actualObs, .defects = o.defects};
            } else {
                nontrivialTotal_.fetch_add(1, std::memory_order_relaxed);
            }

            const uint64_t tick = tick_();
            decodesTotal_.fetch_add(1, std::memory_order_relaxed);
            decodesWin_.add(tick);
            latencyWin_.record(tick, o.latencyNs);
            drift_.record(o.hw);
            ASTREA_HIST_ADD("experiment.hamming_weight", o.hw);

            if (o.latencyNs > config_.budgetNs) {
                deadlineMissesTotal_.fetch_add(1,
                                               std::memory_order_relaxed);
                missesWin_.add(tick);
            }
            if (o.gaveUp) {
                giveUpsTotal_.fetch_add(1, std::memory_order_relaxed);
                giveUpsWin_.add(tick);
                // Same family the streaming bench reports, so
                // dashboards for the service and for bench reports
                // line up.
                ASTREA_COUNTER_INC("experiment.give_ups");
            }
            if (o.logicalError) {
                logicalErrorsTotal_.fetch_add(1,
                                              std::memory_order_relaxed);
                logicalErrorsWin_.add(tick);
            }
        });
    }

    // Refresh the tracer's auto tail threshold from the rolling p99
    // occasionally; until the window has data the slow criterion stays
    // inactive (threshold 0).
    const uint64_t batch_no =
        batchesDone_.fetch_add(1, std::memory_order_relaxed);
    if ((batch_no & 0xFF) == 0)
        telemetry::setTraceAutoTailNs(
            latencyWin_.percentileNs(tick_(), 99.0));
}

void
DecodeServiceCore::accountFleetFlush(std::span<const FleetJob> jobs,
                                     std::span<const DecodeResult> results)
{
    const size_t n = jobs.size();
    if (n == 0)
        return;
    telemetry::LatencyBuckets latency;
    uint64_t nontrivial = 0, misses = 0, give_ups = 0;
    for (size_t i = 0; i < n; i++) {
        const DecodeResult &dr = results[i];
        telemetry::RollingLatency::addSample(latency, dr.latencyNs);
        nontrivial += jobs[i].hw > 0 ? 1 : 0;
        misses += dr.latencyNs > config_.budgetNs ? 1 : 0;
        give_ups += dr.gaveUp ? 1 : 0;
    }

    const uint64_t tick = tick_();
    decodesTotal_.fetch_add(n, std::memory_order_relaxed);
    decodesWin_.add(tick, n);
    latencyWin_.merge(tick, latency);
    drift_.recordEach(n, [jobs](size_t i) { return size_t{jobs[i].hw}; });
    if (nontrivial > 0)
        nontrivialTotal_.fetch_add(nontrivial, std::memory_order_relaxed);
    if (misses > 0) {
        deadlineMissesTotal_.fetch_add(misses, std::memory_order_relaxed);
        missesWin_.add(tick, misses);
    }
    if (give_ups > 0) {
        giveUpsTotal_.fetch_add(give_ups, std::memory_order_relaxed);
        giveUpsWin_.add(tick, give_ups);
    }
}

void
DecodeServiceCore::accountFleetShot(size_t hw, double latency_ns,
                                    bool gave_up)
{
    // Weights past the drift histogram's range all land in its
    // overflow bin, so clamping to the job's field loses nothing.
    FleetJob job;
    job.hw = static_cast<uint16_t>(std::min<size_t>(hw, UINT16_MAX));
    DecodeResult dr;
    dr.latencyNs = latency_ns;
    dr.gaveUp = gave_up;
    accountFleetFlush({&job, 1}, {&dr, 1});
}

uint64_t
DecodeServiceCore::totalDecodes() const
{
    return decodesTotal_.load(std::memory_order_relaxed);
}

double
DecodeServiceCore::windowSeconds(size_t sub_windows) const
{
    return static_cast<double>(sub_windows) *
           static_cast<double>(config_.subWindowMillis) / 1000.0;
}

namespace
{

double
fraction(uint64_t part, uint64_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(whole);
}

} // namespace

std::string
DecodeServiceCore::metricsText(bool openmetrics) const
{
    using telemetry::PromLabels;
    const uint64_t tick = tick_();
    const double error_budget = std::max(1e-12,
                                         1.0 - config_.sloTarget);
    const size_t fast_k = config_.fastBurnSubWindows;

    const uint64_t win_decodes = decodesWin_.total(tick);
    const uint64_t win_misses = missesWin_.total(tick);
    const uint64_t win_giveups = giveUpsWin_.total(tick);
    const uint64_t win_errors = logicalErrorsWin_.total(tick);
    const uint64_t fast_decodes = decodesWin_.total(tick, fast_k);
    const uint64_t fast_misses = missesWin_.total(tick, fast_k);

    telemetry::PrometheusWriter w;

    w.family("astrea_serve_up", "gauge",
             "1 while the decode service is healthy");
    w.sample("astrea_serve_up", uint64_t{healthy_ ? 1u : 0u});

    w.family("astrea_serve_info", "gauge",
             "Static service configuration as labels");
    w.sample("astrea_serve_info", uint64_t{1},
             PromLabels{{"decoder", config_.decoder},
                        {"d", std::to_string(config_.distance)},
                        {"p", std::to_string(config_.physicalErrorRate)}});

    w.counter("astrea_serve_decodes_total", "Decodes attempted",
              decodesTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_serve_nontrivial_decodes_total",
              "Decodes with a non-empty syndrome",
              nontrivialTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_serve_logical_errors_total",
              "Decodes whose predicted observable flip was wrong",
              logicalErrorsTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_serve_give_ups_total",
              "Decodes the decoder declined (e.g. Hamming weight cap)",
              giveUpsTotal_.load(std::memory_order_relaxed));
    w.counter("astrea_serve_deadline_misses_total",
              "Decodes exceeding the modeled cycle budget",
              deadlineMissesTotal_.load(std::memory_order_relaxed));

    w.gauge("astrea_serve_window_decodes",
            "Decodes in the rolling window",
            static_cast<double>(win_decodes));
    w.gauge("astrea_serve_window_decode_rate_hz",
            "Decode throughput over the rolling window",
            static_cast<double>(win_decodes) /
                windowSeconds(config_.subWindows));
    w.gauge("astrea_serve_window_deadline_miss_fraction",
            "Deadline-miss fraction over the rolling window",
            fraction(win_misses, win_decodes));
    w.gauge("astrea_serve_window_give_up_fraction",
            "Give-up fraction over the rolling window",
            fraction(win_giveups, win_decodes));
    w.gauge("astrea_serve_window_logical_error_fraction",
            "Logical-error fraction over the rolling window",
            fraction(win_errors, win_decodes));

    telemetry::LatencyBuckets lat = latencyWin_.buckets(tick);
    {
        const telemetry::TraceStore &store =
            telemetry::TraceStore::global();
        auto toProm = [](const telemetry::TraceStore::Exemplar &e) {
            telemetry::PromExemplar pe;
            if (e.valid) {
                pe.valid = true;
                pe.labels = {
                    {"trace_id", telemetry::traceIdHex(e.traceId)}};
                pe.value = e.latencyNs;
            }
            return pe;
        };

        std::vector<std::pair<double, uint64_t>> cumulative;
        std::vector<telemetry::PromExemplar> exemplars;
        uint64_t cum = 0;
        size_t top = 0;
        for (size_t b = 0; b < telemetry::kLatencyBuckets; b++) {
            if (lat.bins[b])
                top = b;
        }
        for (size_t b = 0; b <= top; b++) {
            cum += lat.bins[b];
            cumulative.emplace_back(telemetry::latencyBucketHighNs(b),
                                    cum);
            if (openmetrics)
                exemplars.push_back(toProm(store.exemplar(b)));
        }
        // The +Inf bucket carries the worst kept trace above the
        // last rendered edge, so even overflow latencies resolve.
        telemetry::PromExemplar inf_pe;
        if (openmetrics)
            inf_pe = toProm(store.exemplarAbove(top));
        w.histogram("astrea_serve_window_latency_ns",
                    "Decode latency over the rolling window (ns)",
                    cumulative, lat.count,
                    static_cast<double>(lat.sumNs), exemplars,
                    inf_pe);
    }
    for (double pct : {50.0, 90.0, 99.0, 99.9}) {
        char name[64];
        std::snprintf(name, sizeof(name),
                      "astrea_serve_window_latency_p%g_ns", pct);
        std::string n = telemetry::promMetricName(name);
        w.gauge(n, "Rolling-window latency percentile (ns)",
                latencyWin_.percentileNs(tick, pct));
    }

    w.gauge("astrea_serve_slo_target",
            "Configured fraction of decodes within budget",
            config_.sloTarget);
    w.gauge("astrea_serve_slo_fast_burn",
            "Deadline-miss burn rate over the fast window "
            "(1 = exactly consuming the error budget)",
            fraction(fast_misses, fast_decodes) / error_budget);
    w.gauge("astrea_serve_slo_slow_burn",
            "Deadline-miss burn rate over the whole rolling window",
            fraction(win_misses, win_decodes) / error_budget);

    w.gauge("astrea_serve_drift_chi_square",
            "Chi-square distance of recent Hamming-weight histogram "
            "vs warm-up baseline",
            drift_.chiSquare());
    w.gauge("astrea_serve_drift_threshold",
            "Drift alarm threshold", drift_.threshold());
    w.gauge("astrea_serve_drift_baseline_ready",
            "1 once the warm-up baseline is complete",
            drift_.baselineReady() ? 1.0 : 0.0);
    w.gauge("astrea_serve_drift_alarm",
            "1 while the drift distance exceeds the threshold",
            drift_.alarmed() ? 1.0 : 0.0);

    audit_->writeMetrics(w);
    if (fleet_)
        fleet_->writeMetrics(w);
    telemetry::TraceStore::global().writeMetrics(w);

    // Written directly, like the audit families: mirroring the perf
    // families through the metrics registry would duplicate their
    // TYPE lines via appendRegistryMetrics.
    telemetry::writePerfPrometheus(w);

    telemetry::appendRegistryMetrics(
        w, telemetry::MetricsRegistry::global());
    std::string text = w.str();
    if (openmetrics)
        text += "# EOF\n";  // OpenMetrics requires the terminator.
    return text;
}

std::string
DecodeServiceCore::statuszJson() const
{
    const uint64_t tick = tick_();
    const double error_budget = std::max(1e-12,
                                         1.0 - config_.sloTarget);
    const size_t fast_k = config_.fastBurnSubWindows;

    const uint64_t win_decodes = decodesWin_.total(tick);
    const uint64_t win_misses = missesWin_.total(tick);
    const uint64_t win_giveups = giveUpsWin_.total(tick);
    const uint64_t win_errors = logicalErrorsWin_.total(tick);
    const uint64_t fast_decodes = decodesWin_.total(tick, fast_k);
    const uint64_t fast_misses = missesWin_.total(tick, fast_k);

    telemetry::JsonWriter w;
    w.beginObject();
    w.kv("service", "astrea_serve");
    w.kv("schema_version", uint64_t{6});
    w.kv("healthy", healthy_.load());
    w.kv("uptime_ticks", tick);

    w.key("config").beginObject();
    w.kv("d", config_.distance);
    w.kv("rounds", config_.rounds);
    w.kv("p", config_.physicalErrorRate);
    w.kv("decoder", config_.decoder);
    w.kv("workers", uint64_t{config_.workers});
    w.kv("budget_ns", config_.budgetNs);
    w.kv("slo_target", config_.sloTarget);
    w.kv("window_seconds", windowSeconds(config_.subWindows));
    w.kv("sub_window_millis", config_.subWindowMillis);
    w.kv("seed", config_.seed);
    w.endObject();

    w.key("totals").beginObject();
    w.kv("decodes", decodesTotal_.load(std::memory_order_relaxed));
    w.kv("nontrivial_decodes",
         nontrivialTotal_.load(std::memory_order_relaxed));
    w.kv("logical_errors",
         logicalErrorsTotal_.load(std::memory_order_relaxed));
    w.kv("give_ups", giveUpsTotal_.load(std::memory_order_relaxed));
    w.kv("deadline_misses",
         deadlineMissesTotal_.load(std::memory_order_relaxed));
    w.endObject();

    w.key("window").beginObject();
    w.kv("decodes", win_decodes);
    w.kv("decode_rate_hz",
         static_cast<double>(win_decodes) /
             windowSeconds(config_.subWindows));
    w.kv("deadline_miss_fraction", fraction(win_misses, win_decodes));
    w.kv("give_up_fraction", fraction(win_giveups, win_decodes));
    w.kv("logical_error_fraction",
         fraction(win_errors, win_decodes));
    w.key("latency_ns").beginObject();
    w.kv("count", latencyWin_.count(tick));
    w.kv("p50", latencyWin_.percentileNs(tick, 50.0));
    w.kv("p90", latencyWin_.percentileNs(tick, 90.0));
    w.kv("p99", latencyWin_.percentileNs(tick, 99.0));
    w.kv("p999", latencyWin_.percentileNs(tick, 99.9));
    w.endObject();
    w.endObject();

    w.key("slo").beginObject();
    w.kv("target", config_.sloTarget);
    w.kv("error_budget", error_budget);
    w.kv("fast_burn",
         fraction(fast_misses, fast_decodes) / error_budget);
    w.kv("slow_burn",
         fraction(win_misses, win_decodes) / error_budget);
    w.endObject();

    w.key("drift").beginObject();
    w.kv("chi_square", drift_.chiSquare());
    w.kv("threshold", drift_.threshold());
    w.kv("baseline_ready", drift_.baselineReady());
    w.kv("alarmed", drift_.alarmed());
    w.endObject();

    w.key("audit").beginObject();
    audit_->writeStatusz(w);
    w.endObject();

    w.key("trace_store").beginObject();
    telemetry::TraceStore::global().writeStatusz(w);
    w.endObject();

    // Always present (schema v5): enabled:false when the fleet is off
    // so dashboards need no schema branch.
    w.key("fleet").beginObject();
    w.kv("enabled", fleet_ != nullptr);
    if (fleet_)
        fleet_->writeStatusz(w);
    w.endObject();

    w.key("perf");
    telemetry::appendPerfJson(w);

    w.endObject();
    return w.str();
}

// ---------------------------------------------------------------------------
// DecodeService

DecodeService::DecodeService(const ServeConfig &config) : core_(config)
{
}

DecodeService::~DecodeService()
{
    stop();
}

bool
DecodeService::start(const std::string &bind_addr, uint16_t port,
                     std::string *error)
{
    http_.handle("/metrics", [this](const net::HttpRequest &req) {
        net::HttpResponse r;
        // OpenMetrics content negotiation: exemplars only exist in
        // the OpenMetrics exposition, so a 0.0.4 scraper keeps
        // getting byte-identical plain text.
        const bool om =
            req.header("accept").find(
                "application/openmetrics-text") !=
                std::string::npos ||
            net::queryParam(req.query, "format") == "openmetrics";
        r.contentType =
            om ? "application/openmetrics-text; version=1.0.0; "
                 "charset=utf-8"
               : "text/plain; version=0.0.4; charset=utf-8";
        r.body = core_.metricsText(om);
        return r;
    });
    http_.handle("/traces", [](const net::HttpRequest &req) {
        net::HttpResponse r;
        r.contentType = "application/json";
        telemetry::TraceQuery q;
        std::string v = net::queryParam(req.query, "min_ns");
        if (!v.empty())
            q.minNs = std::atof(v.c_str());
        q.decoder = net::queryParam(req.query, "decoder");
        q.outcome = net::queryParam(req.query, "outcome");
        v = net::queryParam(req.query, "limit");
        if (!v.empty())
            q.limit = static_cast<size_t>(
                std::clamp(std::atol(v.c_str()), 1l, 100000l));
        r.body = telemetry::TraceStore::global().indexJson(q);
        return r;
    });
    http_.handlePrefix("/traces/", [](const net::HttpRequest &req) {
        net::HttpResponse r;
        const uint64_t id = telemetry::parseTraceIdHex(
            req.path.substr(sizeof("/traces/") - 1));
        std::string body;
        if (id != 0)
            body = telemetry::TraceStore::global().detailJson(id);
        if (body.empty()) {
            r.status = 404;
            r.body = "trace not found\n";
        } else {
            r.contentType = "application/json";
            r.body = body;
        }
        return r;
    });
    http_.handle("/statusz", [this](const net::HttpRequest &) {
        net::HttpResponse r;
        r.contentType = "application/json";
        r.body = core_.statuszJson();
        return r;
    });
    // On-demand CPU profile: collect SIGPROF samples for ?seconds=N
    // (default 2, clamped to [1, 60]) at ?hz=H (default 199) and
    // return collapsed stacks (or ?format=speedscope JSON). The
    // server is serial, so /metrics scrapes queue behind the
    // collection sleep — acceptable for a diagnostic endpoint.
    http_.handle("/pprof/profile", [](const net::HttpRequest &req) {
        net::HttpResponse r;
        unsigned seconds = 2;
        unsigned hz = 199;
        std::string v = net::queryParam(req.query, "seconds");
        if (!v.empty())
            seconds = static_cast<unsigned>(
                std::clamp(std::atol(v.c_str()), 1l, 60l));
        v = net::queryParam(req.query, "hz");
        if (!v.empty())
            hz = static_cast<unsigned>(
                std::clamp(std::atol(v.c_str()), 1l, 1000l));
        const std::string format =
            net::queryParam(req.query, "format");

        auto &prof = telemetry::SamplingProfiler::global();
        std::string error;
        if (prof.running()) {
            r.status = 503;
            r.body = "profiler busy\n";
            return r;
        }
        prof.clear();
        if (!prof.start(hz, &error)) {
            r.status = 500;
            r.body = error + "\n";
            return r;
        }
        std::this_thread::sleep_for(std::chrono::seconds(seconds));
        prof.stop();

        if (format == "speedscope") {
            r.contentType = "application/json";
            r.body = prof.speedscopeJson();
        } else {
            r.body = prof.collapsed();
        }
        return r;
    });
    http_.handle("/healthz", [this](const net::HttpRequest &) {
        net::HttpResponse r;
        const unsigned expected = core_.config().workers;
        if (running_ && activeWorkers_ == expected &&
            core_.healthy()) {
            r.body = "ok\n";
        } else {
            r.status = 503;
            r.body = "unhealthy\n";
        }
        return r;
    });

    if (!http_.start(bind_addr, port, error))
        return false;

    if (core_.fleet() != nullptr) {
        fleetServer_ =
            std::make_unique<net::FleetServer>(*core_.fleet());
        core_.fleet()->setVerdictSink(
            [srv = fleetServer_.get()](const FleetVerdict &v) {
                srv->deliver(v);
            });
        if (!fleetServer_->start(core_.config().fleetBind,
                                 core_.config().fleetPort, error)) {
            fleetServer_.reset();
            http_.stop();
            return false;
        }
        core_.fleet()->start();
    }

    core_.audit().start();
    running_ = true;
    threads_.reserve(core_.config().workers);
    const uint64_t batch_shots =
        std::max<uint64_t>(1, core_.config().batchShots);
    for (unsigned i = 0; i < core_.config().workers; i++) {
        threads_.emplace_back([this, i, batch_shots] {
            auto worker = core_.makeWorker(i);
            activeWorkers_.fetch_add(1);
            while (running_.load(std::memory_order_relaxed))
                core_.decodeBatch(*worker, batch_shots);
            activeWorkers_.fetch_sub(1);
        });
    }
    return true;
}

uint16_t
DecodeService::fleetPort() const
{
    return fleetServer_ ? fleetServer_->port() : 0;
}

void
DecodeService::stop()
{
    if (!running_ && threads_.empty())
        return;
    running_ = false;
    for (auto &t : threads_)
        t.join();
    threads_.clear();
    // Drain the fleet while connections are still up (graceful
    // flush delivers the queued verdicts), then drop the front-end.
    if (core_.fleet() != nullptr)
        core_.fleet()->stop();
    if (fleetServer_) {
        fleetServer_->stop();
        fleetServer_.reset();
    }
    // Flush outstanding audits before the final scrapes can land.
    core_.audit().stop();
    core_.setHealthy(false);
    http_.stop();
}

} // namespace astrea

/**
 * @file
 * Shared helpers for the benchmark binaries.
 *
 * Every bench binary regenerates one table or figure from the paper.
 * They accept --shots=N style overrides (or ASTREA_SHOTS environment
 * variables) so the full-fidelity runs the paper used (1e9+ trials on
 * a cluster) can be approximated or scaled down to laptop budgets; the
 * defaults are sized for minutes, not days, and every output states
 * the budget it used.
 *
 * Benches additionally accept --json-out=PATH: alongside the text
 * table, a machine-readable JSON report is written containing the
 * bench id, its configuration, its headline results, and a snapshot of
 * the telemetry registry (decoder-internal counters). Passing
 * --json-out also turns telemetry collection on. The schema is
 * validated in CI by tools/validate_report.py.
 */

#ifndef ASTREA_BENCH_BENCH_UTIL_HH
#define ASTREA_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/memory_experiment.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/export.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/sampling_profiler.hh"

namespace astrea
{

/** Print the standard bench banner. */
inline void
benchBanner(const char *id, const char *what)
{
    std::printf("==================================================="
                "=========\n");
    std::printf("%s: %s\n", id, what);
    std::printf("==================================================="
                "=========\n");
}

/** Format a probability with its 95%% Wilson interval. */
inline std::string
formatEstimate(const BinomialEstimate &e)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s [%s, %s]",
                  formatProb(e.pointEstimate()).c_str(),
                  formatProb(e.lower95()).c_str(),
                  formatProb(e.upper95()).c_str());
    return buf;
}

/** Note a paper-reported reference value next to a measurement. */
inline void
printPaperRef(const char *label, const char *value)
{
    std::printf("    (paper %s: %s)\n", label, value);
}

/**
 * Apply the shared forensics flags every bench (and astrea_cli)
 * understands, each with an ASTREA_<KEY> environment fallback where
 * the flag wins:
 *
 *  --log-level=LVL      logging threshold (debug/info/warn/error/off);
 *  --chrome-trace=PATH  Perfetto timeline of the kept decode traces'
 *                       stage spans, written at exit (chrome_trace.hh);
 *  --perf-counters      per-stage hardware counters (perf_counters.hh;
 *                       degrades to a no-op where unavailable);
 *  --profile-out=PATH   collapsed-stack CPU profile of the whole run
 *                       (sampling_profiler.hh; .speedscope.json paths
 *                       get speedscope format);
 *  --profile-hz=N       sampling rate for --profile-out (default 199).
 *
 * --chrome-trace switches trace retention on — a timeline of a store
 * that keeps nothing would be empty.
 */
inline void
applyForensicsOptions(const Options &opts)
{
    if (opts.has("log-level"))
        setLogLevel(logLevelFromString(opts.getString("log-level", "")));
    if (opts.has("chrome-trace"))
        telemetry::writeChromeTraceAtExit(
            opts.getString("chrome-trace", ""));
    if (opts.has("perf-counters"))
        telemetry::setPerfCountersEnabled(true);
    if (opts.has("profile-out")) {
        std::string error;
        const unsigned hz = static_cast<unsigned>(
            opts.getUint("profile-hz", 199));
        if (!telemetry::SamplingProfiler::global().start(hz, &error))
            warn("sampling profiler not started: " + error);
    }
}

/**
 * Stop the --profile-out profiler (started by applyForensicsOptions)
 * and write the collected profile: speedscope JSON when the path ends
 * in ".speedscope.json", collapsed/folded stacks otherwise. No-op
 * when --profile-out was absent or the profiler never started.
 */
inline void
finishBenchProfile(const Options &opts)
{
    if (!opts.has("profile-out"))
        return;
    auto &prof = telemetry::SamplingProfiler::global();
    if (!prof.running())
        return;
    prof.stop();
    const std::string path = opts.getString("profile-out", "");
    const std::string suffix = ".speedscope.json";
    const bool speedscope =
        path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
    const std::string out =
        speedscope ? prof.speedscopeJson() : prof.collapsed();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open --profile-out file: " + path);
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("profile (%zu samples) written to %s\n",
                prof.sampleCount(), path.c_str());
}

/**
 * Resolve --json-out (or ASTREA_JSON_OUT) and, when a report was
 * requested, switch telemetry collection on so the report can include
 * the decoder-internal counters. Also applies the shared forensics
 * flags (applyForensicsOptions()). Returns the output path, or ""
 * when no report was requested.
 */
inline std::string
initBenchReport(const Options &opts)
{
    applyForensicsOptions(opts);
    std::string path = opts.getString("json-out", "");
    if (!path.empty()) {
        // Fail fast on an unwritable path: discovering it only after a
        // long run would discard the results.
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            fatal("cannot open --json-out file: " + path);
        std::fclose(f);
        telemetry::setEnabled(true);
    }
    return path;
}

/** Serialize an integer histogram as {"bins":{key:count},...}. */
inline void
appendHistogramJson(telemetry::JsonWriter &w, const Histogram &h)
{
    w.beginObject();
    w.kv("total", h.total());
    w.kv("overflow", h.overflow());
    w.key("bins").beginObject();
    for (size_t k = 0; k <= h.maxKey(); k++) {
        if (h.at(k))
            w.kv(std::to_string(k), h.at(k));
    }
    w.endObject();
    w.endObject();
}

/**
 * Serialize one ExperimentResult's headline numbers: shots, LER with
 * its Wilson interval, latency mean/max and p50/p90/p99/p99.9 (over all
 * shots and over nontrivial HW > 2 shots), the Hamming-weight
 * histogram, and give-up counts with the HW at which they happened.
 * Emits keys into the writer's current object.
 */
inline void
appendExperimentResultJson(telemetry::JsonWriter &w,
                           const ExperimentResult &r)
{
    w.kv("shots", r.logicalErrors.trials);
    w.kv("logical_errors", r.logicalErrors.successes);
    w.kv("ler", r.logicalErrors.pointEstimate());
    w.kv("ler_lower95", r.logicalErrors.lower95());
    w.kv("ler_upper95", r.logicalErrors.upper95());

    w.key("latency_ns").beginObject();
    w.kv("mean", r.latencyNs.mean());
    w.kv("max", r.latencyNs.max());
    w.kv("p50", r.latencyHist.p50Ns());
    w.kv("p90", r.latencyHist.p90Ns());
    w.kv("p99", r.latencyHist.p99Ns());
    w.kv("p999", r.latencyHist.p999Ns());
    w.kv("overflow", r.latencyHist.overflowCount());
    w.endObject();

    w.key("latency_nontrivial_ns").beginObject();
    w.kv("mean", r.latencyNontrivialNs.mean());
    w.kv("max", r.latencyNontrivialNs.max());
    w.kv("p50", r.latencyNontrivialHist.p50Ns());
    w.kv("p90", r.latencyNontrivialHist.p90Ns());
    w.kv("p99", r.latencyNontrivialHist.p99Ns());
    w.kv("p999", r.latencyNontrivialHist.p999Ns());
    w.kv("overflow", r.latencyNontrivialHist.overflowCount());
    w.endObject();

    w.key("hw_histogram");
    appendHistogramJson(w, r.hammingWeights);

    w.kv("gave_ups", r.gaveUps);
    w.key("gave_up_hw");
    appendHistogramJson(w, r.gaveUpHw);
}

/**
 * Write a finished report document and tell the user. The writer must
 * hold a complete (balanced) JSON document.
 */
inline void
writeBenchReport(const std::string &path,
                 const telemetry::JsonWriter &w)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open --json-out file: " + path);
    const std::string &json = w.str();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("json report written to %s\n", path.c_str());
}

/**
 * Open the standard report envelope: {"bench":id,"config":{...
 * Caller fills the config object, closes it, adds a "results" entry,
 * then calls finishBenchReport().
 */
inline void
beginBenchReport(telemetry::JsonWriter &w, const char *bench_id)
{
    w.beginObject();
    w.kv("bench", bench_id);
    w.kv("schema_version", uint64_t{1});
    w.key("config").beginObject();
}

/**
 * Close the envelope opened by beginBenchReport() — the caller must
 * be back at the top-level object — appending the telemetry registry
 * snapshot under "metrics", then write the file.
 */
inline void
finishBenchReport(telemetry::JsonWriter &w, const std::string &path)
{
    // Fold the perf-counter gauges (perf.*) into the registry first so
    // the snapshot below carries them.
    telemetry::publishPerfMetrics(telemetry::MetricsRegistry::global());
    w.key("metrics");
    telemetry::appendMetricsJson(w,
                                 telemetry::MetricsRegistry::global());
    w.endObject();
    writeBenchReport(path, w);
}

} // namespace astrea

#endif // ASTREA_BENCH_BENCH_UTIL_HH

#include "telemetry/export.hh"

#include <cstdio>

#include "common/logging.hh"

namespace astrea
{
namespace telemetry
{

void
appendMetricsJson(JsonWriter &w, const MetricsRegistry &registry)
{
    w.beginObject();

    w.key("counters").beginObject();
    for (const auto &[name, v] : registry.counterValues())
        w.kv(name, v);
    w.endObject();

    w.key("gauges").beginObject();
    for (const auto &[name, v] : registry.gaugeValues())
        w.kv(name, v);
    w.endObject();

    w.key("int_histograms").beginObject();
    for (const auto &[name, snap] : registry.intHistogramValues()) {
        w.key(name).beginObject();
        w.kv("total", snap.total);
        w.kv("overflow", snap.overflow);
        w.key("bins").beginObject();
        for (size_t k = 0; k < snap.bins.size(); k++) {
            if (snap.bins[k])
                w.kv(std::to_string(k), snap.bins[k]);
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();

    w.key("latency_histograms").beginObject();
    for (const auto &[name, snap] : registry.latencyValues()) {
        w.key(name).beginObject();
        w.kv("count", snap.count);
        w.kv("mean_ns", snap.meanNs);
        w.kv("min_ns", snap.minNs);
        w.kv("max_ns", snap.maxNs);
        w.kv("p50_ns", snap.p50Ns);
        w.kv("p90_ns", snap.p90Ns);
        w.kv("p99_ns", snap.p99Ns);
        w.endObject();
    }
    w.endObject();

    w.endObject();
}

std::string
metricsToJson(const MetricsRegistry &registry)
{
    JsonWriter w;
    appendMetricsJson(w, registry);
    return w.str();
}

void
writeMetricsJson(const MetricsRegistry &registry,
                 const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open metrics output file: " + path);
    std::string json = metricsToJson(registry);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
}

} // namespace telemetry
} // namespace astrea

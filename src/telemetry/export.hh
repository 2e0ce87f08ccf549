/**
 * @file
 * Telemetry exporter: full-registry JSON snapshots.
 *
 * The JSON snapshot serializes every metric in the registry — this is
 * what bench binaries embed in their --json-out reports, giving each
 * run a machine-readable record of the decoder's internal counters
 * (HW6 invocations, filter reductions, give-ups, queue occupancy, ...)
 * next to its headline numbers.
 */

#ifndef ASTREA_TELEMETRY_EXPORT_HH
#define ASTREA_TELEMETRY_EXPORT_HH

#include <string>

#include "telemetry/json.hh"
#include "telemetry/metrics.hh"

namespace astrea
{
namespace telemetry
{

/**
 * Append the registry's full contents as one JSON object:
 * {"counters":{...},"gauges":{...},"int_histograms":{...},
 *  "latency_histograms":{...}}. Int histograms serialize sparsely
 * (only nonzero keys); latency histograms serialize as summary stats
 * including p50/p90/p99.
 */
void appendMetricsJson(JsonWriter &w, const MetricsRegistry &registry);

/** The registry as a standalone JSON document string. */
std::string metricsToJson(const MetricsRegistry &registry);

/** Write the registry snapshot to a file; fatal() on I/O failure. */
void writeMetricsJson(const MetricsRegistry &registry,
                      const std::string &path);

} // namespace telemetry
} // namespace astrea

#endif // ASTREA_TELEMETRY_EXPORT_HH

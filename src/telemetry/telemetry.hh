/**
 * @file
 * Compile-time-cheap instrumentation macros for the decode hot paths.
 *
 * Each macro site costs one relaxed atomic load (the enabled flag) and
 * one predicted branch when telemetry is off, and a single sharded
 * relaxed fetch_add when on; the metric handle is resolved once per
 * site and cached in a function-local static. Building with
 * -DASTREA_TELEMETRY_DISABLED compiles every site out entirely for
 * zero-cost paranoia builds.
 *
 * The metric name must be a string literal (or at least live for the
 * program's duration and be the same string on every execution of the
 * site): it is only read the first time the site executes.
 */

#ifndef ASTREA_TELEMETRY_TELEMETRY_HH
#define ASTREA_TELEMETRY_TELEMETRY_HH

#include "telemetry/metrics.hh"

#ifndef ASTREA_TELEMETRY_DISABLED

/** Add n to the named counter. */
#define ASTREA_COUNTER_ADD(name, n)                                       \
    do {                                                                  \
        if (::astrea::telemetry::enabled()) {                             \
            static ::astrea::telemetry::Counter &astrea_tel_c =           \
                ::astrea::telemetry::MetricsRegistry::global().counter(   \
                    name);                                                \
            astrea_tel_c.add(n);                                          \
        }                                                                 \
    } while (0)

/** Increment the named counter by one. */
#define ASTREA_COUNTER_INC(name) ASTREA_COUNTER_ADD(name, 1)

/** Set the named gauge. */
#define ASTREA_GAUGE_SET(name, v)                                         \
    do {                                                                  \
        if (::astrea::telemetry::enabled()) {                             \
            static ::astrea::telemetry::Gauge &astrea_tel_g =             \
                ::astrea::telemetry::MetricsRegistry::global().gauge(     \
                    name);                                                \
            astrea_tel_g.set(v);                                          \
        }                                                                 \
    } while (0)

/** Raise the named gauge to v if v exceeds it (high-water mark). */
#define ASTREA_GAUGE_MAX(name, v)                                         \
    do {                                                                  \
        if (::astrea::telemetry::enabled()) {                             \
            static ::astrea::telemetry::Gauge &astrea_tel_g =             \
                ::astrea::telemetry::MetricsRegistry::global().gauge(     \
                    name);                                                \
            astrea_tel_g.recordMax(v);                                    \
        }                                                                 \
    } while (0)

/** Count the integer key in the named histogram (default 64 bins). */
#define ASTREA_HIST_ADD(name, key)                                        \
    do {                                                                  \
        if (::astrea::telemetry::enabled()) {                             \
            static ::astrea::telemetry::IntHistogram &astrea_tel_h =      \
                ::astrea::telemetry::MetricsRegistry::global()            \
                    .intHistogram(name);                                  \
            astrea_tel_h.add(key);                                        \
        }                                                                 \
    } while (0)

/** Count the integer key n times (bulk form for batched paths). */
#define ASTREA_HIST_ADD_N(name, key, n)                                   \
    do {                                                                  \
        if (::astrea::telemetry::enabled()) {                             \
            static ::astrea::telemetry::IntHistogram &astrea_tel_h =      \
                ::astrea::telemetry::MetricsRegistry::global()            \
                    .intHistogram(name);                                  \
            astrea_tel_h.add(key, n);                                     \
        }                                                                 \
    } while (0)

/** Record a duration sample (ns) in the named latency histogram. */
#define ASTREA_LATENCY_NS(name, ns)                                       \
    do {                                                                  \
        if (::astrea::telemetry::enabled()) {                             \
            static ::astrea::telemetry::LatencyMetric &astrea_tel_l =     \
                ::astrea::telemetry::MetricsRegistry::global().latency(   \
                    name);                                                \
            astrea_tel_l.record(ns);                                      \
        }                                                                 \
    } while (0)

#else  // ASTREA_TELEMETRY_DISABLED

#define ASTREA_COUNTER_ADD(name, n) ((void)0)
#define ASTREA_COUNTER_INC(name) ((void)0)
#define ASTREA_GAUGE_SET(name, v) ((void)0)
#define ASTREA_GAUGE_MAX(name, v) ((void)0)
#define ASTREA_HIST_ADD(name, key) ((void)0)
#define ASTREA_HIST_ADD_N(name, key, n) ((void)0)
#define ASTREA_LATENCY_NS(name, ns) ((void)0)

#endif // ASTREA_TELEMETRY_DISABLED

#endif // ASTREA_TELEMETRY_TELEMETRY_HH

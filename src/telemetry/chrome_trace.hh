/**
 * @file
 * Chrome Trace Event / Perfetto timeline exporter.
 *
 * The JSONL trace (export.hh) is greppable but flat; answering "where
 * did this one slow decode spend its time?" needs a per-thread
 * timeline a human can open. This writer emits the Trace Event JSON
 * Array Format understood by chrome://tracing and ui.perfetto.dev:
 * duration events ("B"/"E") for every completed ScopedTimer span,
 * counter events ("C") for sampled quantities such as Astrea-G's
 * priority-queue occupancy, and instant events ("i") for point
 * incidents (give-ups).
 *
 * Timestamps are microseconds on the process-wide steady clock, so
 * they are monotonic across threads; each thread gets a stable small
 * tid assigned on first event. Events from worker threads interleave
 * in the file and are sorted by the viewer. The writer streams events
 * to disk as they happen (mutex-guarded, one event per line inside
 * the JSON array) and finalizes the array when closed, so even an
 * aborted run leaves a file Perfetto can usually recover.
 *
 * Enable process-wide with ASTREA_CHROME_TRACE=path or
 * setGlobalChromeTraceFile(); bench binaries expose --chrome-trace.
 * Span events additionally require telemetry to be enabled (the
 * ASTREA_SPAN sites are gated on enabled()).
 */

#ifndef ASTREA_TELEMETRY_CHROME_TRACE_HH
#define ASTREA_TELEMETRY_CHROME_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace astrea
{
namespace telemetry
{

/** Microseconds since the process trace epoch (steady clock). */
double traceNowUs();

/** Stable small id for the calling thread (assigned on first use). */
uint32_t traceThreadId();

/** Streaming Trace Event JSON Array writer. */
class ChromeTraceWriter
{
  public:
    /** Opens the file and writes the array opener; "" disables. */
    explicit ChromeTraceWriter(const std::string &path);

    /** Finalizes the array and closes the file. */
    ~ChromeTraceWriter();

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    bool ok() const { return file_ != nullptr; }
    uint64_t eventsWritten() const { return events_; }

    /** Begin a duration slice on the calling thread. */
    void begin(const char *name);
    /** End the most recent open slice on the calling thread. */
    void end(const char *name);
    /** Sample a named counter track. */
    void counter(const char *name, double value);
    /** Thread-scoped instant event. */
    void instant(const char *name);

    /** Close the array now (idempotent; also done by the destructor). */
    void finalize();

  private:
    void emit(const char *name, char phase, double ts_us,
              const double *counter_value, const double *dur_us);

    std::mutex mu_;
    std::FILE *file_ = nullptr;
    uint64_t events_ = 0;
    bool first_ = true;
};

/**
 * The process-wide Chrome trace, or nullptr when disabled. Configured
 * lazily from ASTREA_CHROME_TRACE on first call, or explicitly via
 * setGlobalChromeTraceFile().
 */
ChromeTraceWriter *globalChromeTrace();

/** globalChromeTrace() without the mutex, for hot-path polling. */
ChromeTraceWriter *globalChromeTraceFast();

/**
 * Monotone counter bumped on every global-trace reconfiguration. A
 * long-lived span remembers the generation along with the writer it
 * emitted "B" to; a matching pointer alone is not proof the writer
 * survived (a replacement can be allocated at the freed address), a
 * matching (pointer, generation) pair is.
 */
uint64_t globalChromeTraceGeneration();

/**
 * (Re)configure the global Chrome trace. An empty path finalizes and
 * disables; a new path finalizes any previous trace first.
 */
void setGlobalChromeTraceFile(const std::string &path);

} // namespace telemetry
} // namespace astrea

#endif // ASTREA_TELEMETRY_CHROME_TRACE_HH

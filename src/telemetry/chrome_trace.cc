#include "telemetry/chrome_trace.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/json.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/trace_store.hh"

namespace astrea
{
namespace telemetry
{

namespace
{

/** ns as a JSON number of microseconds, the format's time unit. */
std::string
microsecondsJson(uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

} // namespace

void
writeChromeTrace(const TraceStore &store, std::FILE *out)
{
    // Oldest first, with timestamps counted from the oldest kept batch.
    std::vector<StoredTrace> traces = store.snapshot();
    std::reverse(traces.begin(), traces.end());
    uint64_t epoch_ns = UINT64_MAX;
    for (const StoredTrace &t : traces)
        epoch_ns = std::min(epoch_ns, t.batchStartNs);

    // A batch span is the same interval in every kept trace of its
    // batch: (stream, batch start) names the batch.
    std::set<std::pair<uint32_t, uint64_t>> batches_written;
    const char *separator = "\n";
    std::fputc('[', out);
    for (const StoredTrace &t : traces) {
        for (uint32_t i = 0; i < t.numSpans && i < kTraceMaxSpans; i++) {
            const TraceSpan &sp = t.spans[i];
            const bool batch = sp.shot < 0;
            if (batch &&
                !batches_written.emplace(t.stream, t.batchStartNs).second)
                continue;
            const uint64_t start_ns = t.batchStartNs - epoch_ns + sp.startNs;
            JsonWriter w;
            w.beginObject()
                .kv("name", perfStageName(static_cast<PerfStage>(sp.stage)))
                .kv("cat", "astrea")
                .kv("ph", "X");
            w.key("ts").raw(microsecondsJson(start_ns));
            w.key("dur").raw(microsecondsJson(sp.durNs));
            w.kv("pid", uint64_t{1}).kv("tid", t.stream);
            w.key("args").beginObject().kv("decoder", t.decoder);
            if (!batch) {
                w.kv("trace_id", traceIdHex(t.traceId))
                    .kv("shot", t.shot)
                    .kv("hw", t.hw)
                    .kv("outcome", traceOutcomeName(t));
            }
            w.endObject().endObject();
            std::fputs(separator, out);
            separator = ",\n";
            std::fwrite(w.str().data(), 1, w.str().size(), out);
        }
    }
    std::fputs("\n]\n", out);
}

namespace
{

/** The file writeChromeTraceAtExit() writes; nullptr until called. */
std::FILE *g_exit_file = nullptr;

void
writeGlobalChromeTrace()
{
    writeChromeTrace(TraceStore::global(), g_exit_file);
    std::fclose(g_exit_file);
}

} // namespace

void
writeChromeTraceAtExit(const std::string &path)
{
    ASTREA_CHECK(g_exit_file == nullptr,
                 "the chrome trace export is already armed");
    g_exit_file = std::fopen(path.c_str(), "w");
    if (g_exit_file == nullptr)
        fatal("cannot open chrome trace file: " + path);
    TraceRetentionConfig cfg = traceRetention();
    cfg.enabled = true;
    setTraceRetention(cfg);
    // Handlers run in reverse order of registration, interleaved with
    // the destruction of statics: registered after the global store
    // exists, this one runs while the store is still alive.
    TraceStore::global();
    if (std::atexit(writeGlobalChromeTrace) != 0)
        fatal("cannot register the chrome trace export");
}

} // namespace telemetry
} // namespace astrea

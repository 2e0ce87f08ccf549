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
    auto slice = [&](const StoredTrace &t, const char *name,
                     uint64_t offset_ns, uint64_t dur_ns, bool batch) {
        JsonWriter w;
        w.beginObject().kv("name", name).kv("cat", "astrea").kv("ph", "X");
        w.key("ts").raw(
            microsecondsJson(t.batchStartNs - epoch_ns + offset_ns));
        w.key("dur").raw(microsecondsJson(dur_ns));
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
    };
    for (const StoredTrace &t : traces) {
        bool named = false;
        for (uint32_t i = 0; i < t.numSpans && i < kTraceMaxSpans; i++) {
            const TraceSpan &sp = t.spans[i];
            const bool batch = sp.shot < 0;
            named = named || !batch;
            if (batch &&
                !batches_written.emplace(t.stream, t.batchStartNs).second)
                continue;
            slice(t, perfStageName(static_cast<PerfStage>(sp.stage)),
                  sp.startNs, sp.durNs, batch);
        }
        // A decode with no stage of its own (HW 0, or a give-up before
        // any stage ran) is still named, by a zero-duration slice at
        // its batch start.
        if (!named)
            slice(t, "decode", 0, 0, false);
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

/**
 * @file
 * Perfetto / chrome://tracing timeline of the trace store's kept
 * decodes.
 *
 * The decode tracer (decode_trace.hh) records each decode's stages at
 * the PerfSection cut points — the GWT gather, the matching units and
 * the verdict, inside the batch that decoded them — and the trace
 * store keeps the interesting decodes. The timeline is an export of
 * what the store's ring holds, in the Trace Event JSON Array Format
 * that chrome://tracing and ui.perfetto.dev read: one complete ("X")
 * event per kept span, on one track per stream, with the trace id,
 * shot, HW, decoder and outcome in its args. A batch span that several
 * kept traces share appears once.
 *
 * --chrome-trace=PATH (or ASTREA_CHROME_TRACE) on the benches that
 * take the forensics flags and on astrea_cli turns trace retention on
 * and writes the file when the program exits; ASTREA_TRACE_STRIDE and
 * ASTREA_TRACE_TAIL_NS choose which decodes are kept.
 */

#ifndef ASTREA_TELEMETRY_CHROME_TRACE_HH
#define ASTREA_TELEMETRY_CHROME_TRACE_HH

#include <cstdio>
#include <string>

namespace astrea
{
namespace telemetry
{

class TraceStore;

/** Write the store's kept traces to out as a Trace Event JSON array. */
void writeChromeTrace(const TraceStore &store, std::FILE *out);

/**
 * Turn trace retention on, open path (fatal() when it cannot be
 * opened) and write TraceStore::global()'s timeline into it when the
 * program exits. Call at most once per program.
 */
void writeChromeTraceAtExit(const std::string &path);

} // namespace telemetry
} // namespace astrea

#endif // ASTREA_TELEMETRY_CHROME_TRACE_HH

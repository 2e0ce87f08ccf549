/**
 * @file
 * Span recorder for the traced benchmark run.
 *
 * A span is one call of a wrapped public entry point: name, start,
 * end, parent span and the shot it belongs to (stream + seq). Spans
 * are written into one array allocated before the run; when it is
 * full further spans are counted as dropped instead of allocating.
 * The array is dumped to a binary file at exit and reduced to
 * per-name totals and self times (duration minus the time covered by
 * direct children).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

enum class SpanName : uint8_t
{
    FleetBatch,      ///< One coalesced flush: decode + per-shot hooks.
    AstreaDecode,    ///< Decoder::decodeBatch (timing wrapper).
    HarnessAccount,  ///< DecodeServiceCore::accountFleetShot.
    NetDeliver,      ///< FleetServer::deliver (the verdict sink).
    ClientSend,      ///< FleetClient::sendShot.
    ClientFlush,     ///< FleetClient::flush.
    ClientRead,      ///< FleetClient::readVerdict return (instant).
    Count,
};

constexpr size_t kSpanNames = static_cast<size_t>(SpanName::Count);

const char *spanNameText(SpanName name);

constexpr uint32_t kNoShot = 0xFFFFFFFFu;

struct Span
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t stream = kNoShot;
    uint32_t seq = 0;
    /** Parent span id (index + 1); 0 = root. */
    uint32_t parent = 0;
    /** Per-name payload: deliver = queue wait ns (saturating),
     *  batch/decode = shots in the batch. */
    uint32_t arg = 0;
    uint8_t name = 0;
    uint8_t thread = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(size_t capacity);

    /** Reserve a span; returns its id (index + 1) or 0 when full. */
    uint32_t open(SpanName name, uint32_t parent, uint64_t start_ns,
                  uint32_t stream = kNoShot, uint32_t seq = 0);
    /** Stamp the end (and payload) of an open span; id 0 is a no-op. */
    void close(uint32_t id, uint64_t end_ns, uint32_t arg = 0);

    size_t size() const;
    uint64_t dropped() const { return dropped_.load(); }
    const Span *data() const { return spans_.data(); }

    /** Binary dump: "PBSPANS1", u32 name count + NUL-terminated names,
     *  u64 span count, then the raw Span records. */
    bool dump(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::atomic<uint64_t> next_{0};
    std::atomic<uint64_t> dropped_{0};
};

/** Per-name totals over a set of spans. */
struct SpanTotals
{
    std::array<uint64_t, kSpanNames> calls{};
    std::array<double, kSpanNames> totalNs{};
    std::array<double, kSpanNames> selfNs{};
};

/**
 * Sum durations and self times by name over spans[0..n). Self time =
 * duration minus the part of it that the span's direct children
 * (spans whose parent is it) cover.
 */
SpanTotals summarizeSpans(const Span *spans, size_t n);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

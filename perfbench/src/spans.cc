#include "spans.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

namespace
{

uint8_t
threadIndex()
{
    static std::atomic<uint8_t> next{0};
    thread_local uint8_t index = next.fetch_add(1);
    return index;
}

} // namespace

const char *
spanNameText(SpanName name)
{
    switch (name) {
    case SpanName::FleetBatch: return "fleet.batch";
    case SpanName::AstreaDecode: return "astrea.decode";
    case SpanName::HarnessAccount: return "harness.account";
    case SpanName::NetDeliver: return "net.deliver";
    case SpanName::ClientSend: return "net.client_send";
    case SpanName::ClientFlush: return "net.client_flush";
    case SpanName::ClientRead: return "net.client_read";
    case SpanName::Count: break;
    }
    return "?";
}

SpanRecorder::SpanRecorder(size_t capacity) : spans_(capacity)
{
}

uint32_t
SpanRecorder::open(SpanName name, uint32_t parent, uint64_t start_ns,
                   uint32_t stream, uint32_t seq)
{
    const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= spans_.size()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return 0;
    }
    Span &s = spans_[idx];
    s.startNs = start_ns;
    s.endNs = start_ns;
    s.stream = stream;
    s.seq = seq;
    s.parent = parent;
    s.name = static_cast<uint8_t>(name);
    s.thread = threadIndex();
    return static_cast<uint32_t>(idx + 1);
}

void
SpanRecorder::close(uint32_t id, uint64_t end_ns, uint32_t arg)
{
    if (id == 0)
        return;
    Span &s = spans_[id - 1];
    s.endNs = end_ns;
    s.arg = arg;
}

size_t
SpanRecorder::size() const
{
    return static_cast<size_t>(
        std::min<uint64_t>(next_.load(), spans_.size()));
}

bool
SpanRecorder::dump(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    std::fwrite("PBSPANS1", 1, 8, f);
    const uint32_t names = static_cast<uint32_t>(kSpanNames);
    std::fwrite(&names, sizeof(names), 1, f);
    for (size_t i = 0; i < kSpanNames; i++) {
        const char *n = spanNameText(static_cast<SpanName>(i));
        std::fwrite(n, 1, std::char_traits<char>::length(n) + 1, f);
    }
    const uint64_t n = size();
    std::fwrite(&n, sizeof(n), 1, f);
    const bool ok = std::fwrite(spans_.data(), sizeof(Span), n, f) == n;
    return std::fclose(f) == 0 && ok;
}

SpanTotals
summarizeSpans(const Span *spans, size_t n)
{
    // Children grouped by parent in start order, so each parent's
    // covered time is the union of its children's intervals (clipped
    // to the parent's), not their sum.
    std::vector<uint32_t> kids;
    for (size_t i = 0; i < n; i++) {
        if (spans[i].parent != 0 && spans[i].parent <= n)
            kids.push_back(static_cast<uint32_t>(i));
    }
    std::sort(kids.begin(), kids.end(), [&](uint32_t a, uint32_t b) {
        return spans[a].parent != spans[b].parent
                   ? spans[a].parent < spans[b].parent
                   : spans[a].startNs < spans[b].startNs;
    });
    std::vector<double> child_ns(n, 0.0);
    for (size_t k = 0; k < kids.size();) {
        const uint32_t p = spans[kids[k]].parent;
        const Span &parent = spans[p - 1];
        uint64_t run_start = 0, run_end = 0;
        double covered = 0;
        for (; k < kids.size() && spans[kids[k]].parent == p; k++) {
            const Span &c = spans[kids[k]];
            const uint64_t s = std::max(c.startNs, parent.startNs);
            const uint64_t e = std::min(c.endNs, parent.endNs);
            if (s >= e)
                continue;
            if (s > run_end) {
                covered += static_cast<double>(run_end - run_start);
                run_start = s;
                run_end = e;
            } else {
                run_end = std::max(run_end, e);
            }
        }
        covered += static_cast<double>(run_end - run_start);
        child_ns[p - 1] = covered;
    }
    SpanTotals t;
    for (size_t i = 0; i < n; i++) {
        const Span &s = spans[i];
        if (s.name >= kSpanNames)
            continue;
        const double dur = static_cast<double>(s.endNs - s.startNs);
        t.calls[s.name]++;
        t.totalNs[s.name] += dur;
        t.selfNs[s.name] += std::max(0.0, dur - child_ns[i]);
    }
    return t;
}

} // namespace perfbench

/**
 * @file
 * Unit tests of the benchmark's own measurement code: histogram and
 * percentile math, the open-loop schedule and its lateness, span self
 * time, and the verdict ledger. Built as perfbench_selftest;
 * `run.py --self-test` runs it.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <thread>

#include "ledger.hh"
#include "net/fleet_client.hh"
#include "net/fleet_protocol.hh"
#include "schedule.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{
namespace
{

TEST(LogHistogram, BucketsCoverTheirValues)
{
    for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 255ull, 256ull,
                       1000ull, 123456789ull, 1ull << 40, (1ull << 47) - 1}) {
        const size_t b = LogHistogram::bucketOf(v);
        ASSERT_LT(b, LogHistogram::kBuckets);
        const uint64_t lo = LogHistogram::bucketLower(b);
        const uint64_t w = LogHistogram::bucketWidth(b);
        EXPECT_LE(lo, v) << v;
        EXPECT_LT(v, lo + w) << v;
        if (v >= LogHistogram::kSub) {
            EXPECT_LE(static_cast<double>(w) / static_cast<double>(lo),
                      1.0 / LogHistogram::kSub)
                << v;
        }
    }
    EXPECT_EQ(LogHistogram::bucketOf(~0ull), LogHistogram::kBuckets - 1);
}

TEST(LogHistogram, PercentilesTrackExactOnesWithinOnePercent)
{
    std::mt19937_64 rng(7);
    std::lognormal_distribution<double> dist(std::log(250e3), 0.6);
    LogHistogram h;
    std::vector<double> exact;
    for (int i = 0; i < 200000; i++) {
        const uint64_t v = static_cast<uint64_t>(dist(rng));
        h.record(v);
        exact.push_back(static_cast<double>(v));
    }
    EXPECT_EQ(h.count(), exact.size());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
        const double want = percentile(exact, q);
        EXPECT_NEAR(h.percentile(q), want, want * 0.01) << q;
    }
}

TEST(LogHistogram, ConstantSampleStaysInsideItsBucket)
{
    LogHistogram h;
    for (int i = 0; i < 1000; i++)
        h.record(5000);
    const size_t b = LogHistogram::bucketOf(5000);
    for (double q : {0.0, 0.5, 1.0}) {
        EXPECT_GE(h.percentile(q), LogHistogram::bucketLower(b));
        EXPECT_LT(h.percentile(q), LogHistogram::bucketLower(b) +
                                       LogHistogram::bucketWidth(b));
    }
    EXPECT_EQ(h.max(), 5000u);
}

TEST(LogHistogram, EmptyReadsZero)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics)
{
    EXPECT_EQ(percentile({}, 0.5), 0.0);
    EXPECT_EQ(percentile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_EQ(percentile({4, 1, 3, 2}, 0.0), 1.0);
    EXPECT_EQ(percentile({4, 1, 3, 2}, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile({10, 20}, 0.99), 19.9);
    EXPECT_EQ(median({7}), 7.0);
}

TEST(OpenLoopSchedule, DueTimesFollowTheRate)
{
    const uint64_t start = 1000000000;
    const OpenLoopSchedule s(45000.0, start);
    EXPECT_EQ(s.dueNs(0), start);
    EXPECT_NEAR(static_cast<double>(s.dueNs(45000)), start + 1e9, 1.0);
    uint64_t prev = s.dueNs(0);
    for (uint64_t g = 1; g < 100000; g++) {
        const uint64_t d = s.dueNs(g);
        EXPECT_GT(d, prev);
        EXPECT_LE(d - prev, 22223u);
        prev = d;
    }
}

TEST(OpenLoopSchedule, DueCountMatchesDueTimes)
{
    const uint64_t start = 5000;
    const OpenLoopSchedule s(1e6 / 3.0, start);  // Period 3000 ns.
    EXPECT_EQ(s.dueCount(0), 0u);
    EXPECT_EQ(s.dueCount(start - 1), 0u);
    EXPECT_EQ(s.dueCount(start), 1u);
    for (uint64_t g = 0; g < 5000; g++) {
        const uint64_t due = s.dueNs(g);
        EXPECT_EQ(s.dueCount(due), g + 1) << g;
        if (g > 0) {
            EXPECT_EQ(s.dueCount(due - 1), g) << g;
        }
    }
}

TEST(OpenLoopSchedule, LatenessIsSendMinusDue)
{
    const OpenLoopSchedule s(1000.0, 0);  // Period 1 ms.
    EXPECT_EQ(s.latenessNs(3, 3000000), 0u);
    EXPECT_EQ(s.latenessNs(3, 3000500), 500u);
    EXPECT_EQ(s.latenessNs(3, 2999000), 0u);  // Early sends are on time.
    // A pacer waking 2.5 periods late sends three overdue shots at once;
    // their lateness falls off by one period each.
    const uint64_t wake = 2500000;
    const uint64_t n = s.dueCount(wake);
    ASSERT_EQ(n, 3u);
    EXPECT_EQ(s.latenessNs(0, wake), 2500000u);
    EXPECT_EQ(s.latenessNs(1, wake), 1500000u);
    EXPECT_EQ(s.latenessNs(2, wake), 500000u);
}

Span
span(SpanName name, uint32_t parent, uint64_t start, uint64_t end)
{
    Span s;
    s.name = static_cast<uint8_t>(name);
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly)
{
    std::vector<Span> v = {
        span(SpanName::FleetBatch, 0, 0, 1000),       // id 1
        span(SpanName::AstreaDecode, 1, 0, 300),      // id 2, child of 1
        span(SpanName::NetDeliver, 1, 300, 700),      // id 3, child of 1
        span(SpanName::HarnessAccount, 3, 400, 500),  // id 4, child of 3
        span(SpanName::ClientSend, 0, 2000, 2050),    // id 5, root
    };
    const SpanTotals t = summarizeSpans(v.data(), v.size());
    auto idx = [](SpanName n) { return static_cast<size_t>(n); };
    EXPECT_EQ(t.calls[idx(SpanName::FleetBatch)], 1u);
    EXPECT_DOUBLE_EQ(t.totalNs[idx(SpanName::FleetBatch)], 1000);
    EXPECT_DOUBLE_EQ(t.selfNs[idx(SpanName::FleetBatch)], 300);
    EXPECT_DOUBLE_EQ(t.selfNs[idx(SpanName::AstreaDecode)], 300);
    EXPECT_DOUBLE_EQ(t.selfNs[idx(SpanName::NetDeliver)], 300);
    EXPECT_DOUBLE_EQ(t.selfNs[idx(SpanName::HarnessAccount)], 100);
    EXPECT_DOUBLE_EQ(t.selfNs[idx(SpanName::ClientSend)], 50);
    double self = 0;
    for (double s : t.selfNs)
        self += s;
    // Self times partition the root spans' wall time.
    EXPECT_DOUBLE_EQ(self, 1000 + 50);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> v = {
        span(SpanName::FleetBatch, 0, 0, 100),      // id 1
        span(SpanName::NetDeliver, 1, 10, 20),      // overlapping children
        span(SpanName::NetDeliver, 1, 15, 30),      //   cover [10, 30)
        span(SpanName::FleetBatch, 0, 200, 300),    // id 4
        span(SpanName::NetDeliver, 4, 190, 250),    // clipped to [200, 250)
        span(SpanName::NetDeliver, 4, 240, 400),    //   and [240, 300)
    };
    const SpanTotals t = summarizeSpans(v.data(), v.size());
    // Batch 1: 100 - 20 = 80; batch 4: 100 - 100 = 0.
    EXPECT_DOUBLE_EQ(t.selfNs[static_cast<size_t>(SpanName::FleetBatch)], 80);
    EXPECT_DOUBLE_EQ(t.totalNs[static_cast<size_t>(SpanName::NetDeliver)],
                     10 + 15 + 60 + 160);
}

TEST(Spans, RecorderDropsWhenFullAndLinksParents)
{
    SpanRecorder rec(2);
    const uint32_t a = rec.open(SpanName::FleetBatch, 0, 10);
    const uint32_t b = rec.open(SpanName::NetDeliver, a, 20, 3, 4);
    const uint32_t c = rec.open(SpanName::NetDeliver, a, 30);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(c, 0u);
    rec.close(b, 25, 99);
    rec.close(a, 40);
    rec.close(c, 50);  // No-op.
    EXPECT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.dropped(), 1u);
    const Span &s = rec.data()[b - 1];
    EXPECT_EQ(s.parent, a);
    EXPECT_EQ(s.stream, 3u);
    EXPECT_EQ(s.seq, 4u);
    EXPECT_EQ(s.arg, 99u);
    EXPECT_EQ(s.endNs - s.startNs, 5u);
    const SpanTotals t = summarizeSpans(rec.data(), rec.size());
    EXPECT_DOUBLE_EQ(t.selfNs[static_cast<size_t>(SpanName::FleetBatch)],
                     25);
}

TEST(Ledger, CountsDuplicateAndUnexpectedVerdicts)
{
    Ledger ledger(4, 8);
    uint64_t g = 0;
    EXPECT_EQ(ledger.accept(0, 0, g), Ledger::Kind::Unexpected);  // Unsent.
    for (uint64_t i = 0; i < 10; i++)
        ledger.stage(i, 100 + i);
    EXPECT_EQ(ledger.accept(1, 2, g), Ledger::Kind::Accepted);
    EXPECT_EQ(g, 9u);
    EXPECT_EQ(ledger.sendNs(g), 109u);
    EXPECT_EQ(ledger.accept(1, 2, g), Ledger::Kind::Duplicate);
    EXPECT_EQ(ledger.accept(4, 0, g), Ledger::Kind::Unexpected);  // Stream.
    EXPECT_EQ(ledger.accept(1, 0, g), Ledger::Kind::Unexpected);  // Reused.
    EXPECT_EQ(ledger.accept(2, 0, g), Ledger::Kind::Accepted);
    EXPECT_EQ(ledger.accepted, 2u);
    EXPECT_EQ(ledger.duplicates, 1u);
    EXPECT_EQ(ledger.unexpected, 3u);
}

/**
 * A late paced wake stages every shot that came due, which can pass
 * FleetClient's ~32 KiB send buffer: the client then writes frames out
 * inside sendShot, before the wake's flush. A server that answers those
 * frames at once must find each of them already in the ledger.
 */
TEST(Ledger, FramesWrittenBeforeTheFlushAreAlreadyStaged)
{
    constexpr uint32_t kStreams = 64;
    constexpr uint64_t kShots = 4096;  // ~18 B frames: over 64 KiB.
    constexpr uint32_t kDetectorBits = 120;

    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr), len), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr *>(&addr), &len),
              0);

    astrea::net::FleetClient client;
    std::string err;
    bool connected = false;
    std::thread connector([&] {
        connected = client.connect("127.0.0.1", ntohs(addr.sin_port), &err);
    });
    const int sfd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(sfd, 0);
    std::vector<uint8_t> hello;
    astrea::net::appendFleetHello(hello, kDetectorBits);
    ASSERT_EQ(::send(sfd, hello.data(), hello.size(), 0),
              static_cast<ssize_t>(hello.size()));
    connector.join();
    ASSERT_TRUE(connected) << err;

    // The server: answer every complete Syndrome frame that arrived,
    // waiting up to `wait_ms` for the first bytes.
    Ledger ledger(kStreams, 1u << 16);
    astrea::net::FleetFrameBuffer frames;
    uint64_t answered = 0;
    auto answer = [&](int wait_ms) {
        pollfd pfd{sfd, POLLIN, 0};
        if (::poll(&pfd, 1, wait_ms) <= 0)
            return;
        uint8_t buf[65536];
        ssize_t n;
        while ((n = ::recv(sfd, buf, sizeof(buf), MSG_DONTWAIT)) > 0)
            frames.append(buf, static_cast<size_t>(n));
        astrea::net::FleetFrameHeader h;
        const uint8_t *payload = nullptr;
        while (frames.next(h, payload) == astrea::net::FleetParse::Ok) {
            uint64_t g = 0;
            EXPECT_EQ(ledger.accept(h.streamId, h.seq, g),
                      Ledger::Kind::Accepted)
                << "shot " << g << " answered before it was staged";
            answered++;
        }
    };

    // One wake: every shot staged, no flush until the end.
    const std::vector<uint32_t> defects = {3, 17, 40};
    for (uint64_t g = 0; g < kShots; g++) {
        ledger.stage(g, g);
        ASSERT_TRUE(client.sendShot(static_cast<uint32_t>(g % kStreams),
                                    static_cast<uint32_t>(g / kStreams), 0,
                                    defects));
        answer(0);
    }
    if (answered == 0)
        answer(5000);
    EXPECT_GT(answered, 0u) << "the client wrote nothing before the flush";
    ASSERT_TRUE(client.flush());
    while (answered < kShots) {
        const uint64_t before = answered;
        answer(5000);
        if (answered == before)
            break;
    }
    EXPECT_EQ(answered, kShots);
    EXPECT_EQ(ledger.accepted, kShots);
    EXPECT_EQ(ledger.unexpected, 0u);
    client.close();
    ::close(sfd);
    ::close(lfd);
}

} // namespace
} // namespace perfbench

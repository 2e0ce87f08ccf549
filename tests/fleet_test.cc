/**
 * @file
 * Tests for the sharded decode fleet: the lock-free MPSC ring, the
 * binary ingest protocol (golden frame bytes, truncation and bit-flip
 * fuzz), the work-conserving flush policy and its flush-boundary marks
 * under an injected clock, per-flush accounting before any verdict
 * leaves, priority-ramp load shedding (a group sheds what the same
 * jobs one at a time shed), concurrent group submission, parked
 * workers woken by a submission and by stop(), one flush written to
 * several connections, and end-to-end TCP ingest parity against a
 * direct decodeBatch on the same syndromes.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "common/bitvec.hh"
#include "common/mpsc_ring.hh"
#include "common/rng.hh"
#include "compression/syndrome_codec.hh"
#include "decoders/decoder.hh"
#include "decoders/registry.hh"
#include "harness/decode_service.hh"
#include "harness/fleet.hh"
#include "harness/memory_experiment.hh"
#include "net/fleet_client.hh"
#include "net/fleet_protocol.hh"
#include "net/fleet_server.hh"

namespace astrea
{
namespace
{

// ---------------------------------------------------------------- ring

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo)
{
    MpscRing<int> r(100);
    EXPECT_EQ(r.capacity(), 128u);
    MpscRing<int> r2(64);
    EXPECT_EQ(r2.capacity(), 64u);
    MpscRing<int> r3(1);
    EXPECT_GE(r3.capacity(), 1u);
}

TEST(MpscRing, FifoOrderSurvivesWraparound)
{
    MpscRing<int> r(8);
    int next_out = 0;
    int next_in = 0;
    // Push/pop in lockstep 10x the capacity so head and tail wrap
    // several times; order must hold across every wrap.
    for (int round = 0; round < 20; round++) {
        for (int i = 0; i < 5; i++)
            ASSERT_TRUE(r.tryPush(next_in++));
        for (int i = 0; i < 5; i++) {
            int v = -1;
            ASSERT_TRUE(r.tryPop(v));
            EXPECT_EQ(v, next_out++);
        }
    }
    int v;
    EXPECT_FALSE(r.tryPop(v));
}

TEST(MpscRing, BoundedCapacityRejectsWhenFull)
{
    MpscRing<int> r(4);
    for (int i = 0; i < 4; i++)
        ASSERT_TRUE(r.tryPush(i));
    EXPECT_FALSE(r.tryPush(99));
    EXPECT_EQ(r.sizeApprox(), 4u);
    int v = -1;
    ASSERT_TRUE(r.tryPop(v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(r.tryPush(99));
    EXPECT_FALSE(r.tryPush(100));
}

TEST(MpscRing, SpscHammerPreservesOrderAndCount)
{
    MpscRing<uint64_t> ring(64);
    constexpr uint64_t kItems = 200000;
    std::thread producer([&] {
        for (uint64_t i = 0; i < kItems; i++) {
            while (!ring.tryPush(i))
                std::this_thread::yield();
        }
    });
    uint64_t expect = 0;
    while (expect < kItems) {
        uint64_t v;
        if (ring.tryPop(v)) {
            ASSERT_EQ(v, expect);
            expect++;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    uint64_t v;
    EXPECT_FALSE(ring.tryPop(v));
}

TEST(MpscRing, MpscHammerLosesNothingAndKeepsPerProducerOrder)
{
    MpscRing<uint64_t> ring(128);
    constexpr unsigned kProducers = 4;
    constexpr uint64_t kPerProducer = 50000;
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; p++) {
        producers.emplace_back([&ring, p] {
            for (uint64_t i = 0; i < kPerProducer; i++) {
                const uint64_t tagged = (uint64_t{p} << 32) | i;
                while (!ring.tryPush(tagged))
                    std::this_thread::yield();
            }
        });
    }
    // Single consumer: per-producer sequence numbers must arrive in
    // order even though producers interleave arbitrarily.
    uint64_t next_seq[kProducers] = {0, 0, 0, 0};
    uint64_t popped = 0;
    while (popped < kProducers * kPerProducer) {
        uint64_t v;
        if (!ring.tryPop(v)) {
            std::this_thread::yield();
            continue;
        }
        const unsigned p = static_cast<unsigned>(v >> 32);
        const uint64_t seq = v & 0xFFFFFFFFu;
        ASSERT_LT(p, kProducers);
        ASSERT_EQ(seq, next_seq[p]) << "producer " << p;
        next_seq[p]++;
        popped++;
    }
    for (auto &t : producers)
        t.join();
    for (unsigned p = 0; p < kProducers; p++)
        EXPECT_EQ(next_seq[p], kPerProducer);
}

// ------------------------------------------------------------ protocol

TEST(FleetProtocol, HeaderRoundTrips)
{
    std::vector<uint8_t> buf;
    const uint8_t codec[16] = {};
    net::appendFleetSyndrome(buf, 0xDEADBEEFu, 42, 0, codec,
                             sizeof(codec));
    ASSERT_EQ(buf.size(), net::kFleetHeaderBytes + 17);
    net::FleetFrameHeader h;
    EXPECT_EQ(net::parseFleetHeader(buf.data(), buf.size(), h),
              net::FleetParse::Ok);
    EXPECT_EQ(h.type, net::FleetFrameType::Syndrome);
    EXPECT_EQ(h.streamId, 0xDEADBEEFu);
    EXPECT_EQ(h.seq, 42u);
    EXPECT_EQ(h.payloadLen, 17u);
}

TEST(FleetProtocol, GoldenFrameBytes)
{
    // One verdict frame and one syndrome frame, byte for byte: magic
    // 0xA57A, version 1, type, stream id, seq and payload length, all
    // little-endian, then the payload.
    std::vector<uint8_t> verdict;
    net::appendFleetVerdict(verdict, 0x01020304u, 0x0A0B0C0Du,
                            0x1122334455667788ull,
                            net::kVerdictGaveUp | net::kVerdictShed);
    const std::vector<uint8_t> want_verdict{
        0x7A, 0xA5, 0x01, 0x02, 0x04, 0x03, 0x02, 0x01, 0x0D, 0x0C,
        0x0B, 0x0A, 0x09, 0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33,
        0x22, 0x11, 0x03};
    EXPECT_EQ(verdict, want_verdict);
    EXPECT_EQ(verdict.size(), net::kFleetVerdictBytes);

    // Defects {3, 17, 64} of a 72-bit syndrome, Sparse: tag 1, count
    // 3, one byte per index; priority 5 ahead of the codec bytes.
    const std::vector<uint32_t> defects{3, 17, 64};
    std::vector<uint8_t> syndrome{0xEE};  // Appends after this byte.
    net::appendFleetSyndrome(syndrome, 7, 0x100, 5, defects, 72,
                             SyndromeCodec::Sparse);
    const std::vector<uint8_t> want_syndrome{
        0xEE, 0x7A, 0xA5, 0x01, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x06, 0x00, 0x05, 0x01, 0x03, 0x03, 0x11,
        0x40};
    EXPECT_EQ(syndrome, want_syndrome);
}

TEST(FleetProtocol, DefectListSyndromeFrameMatchesPreEncodedFrame)
{
    // The frame the client builds from a defect list equals the frame
    // built around the BitVec encoder's bytes, for every codec, at a
    // one-byte-index and a two-byte-index width, HW 0-10 and dense.
    Rng rng(41);
    for (uint32_t n : {72u, 720u}) {
        for (uint32_t hw = 0; hw <= 11; hw++) {
            BitVec v(n);
            if (hw == 11) {
                for (uint32_t i = 0; i < n; i += 3)
                    v.set(i);
            }
            while (v.popcount() < hw)
                v.set(static_cast<size_t>(rng.uniformInt(n)));
            const std::vector<uint32_t> defects = v.onesIndices();
            for (SyndromeCodec codec :
                 {SyndromeCodec::Raw, SyndromeCodec::Sparse,
                  SyndromeCodec::RunLength}) {
                const auto codec_bytes = encodeSyndrome(v, codec);
                std::vector<uint8_t> want, got;
                net::appendFleetSyndrome(want, 9, hw, 3,
                                         codec_bytes.data(),
                                         codec_bytes.size());
                net::appendFleetSyndrome(got, 9, hw, 3, defects, n,
                                         codec);
                EXPECT_EQ(got, want) << "n=" << n << " hw=" << hw;
            }
        }
    }
}

TEST(FleetProtocol, DribbledBytesYieldFramesInOrder)
{
    // Hello + Syndrome + Verdict concatenated, delivered a byte at a
    // time: the buffer must never yield a frame early, and must yield
    // all three in order once their bytes are in.
    std::vector<uint8_t> wire;
    net::appendFleetHello(wire, 360);
    const uint8_t codec[] = {0x00, 0xAB};  // Opaque payload bytes.
    net::appendFleetSyndrome(wire, 7, 3, 5, codec, sizeof(codec));
    net::appendFleetVerdict(wire, 7, 3, 0x1234, net::kVerdictGaveUp);

    net::FleetFrameBuffer fb;
    std::vector<net::FleetFrameHeader> got;
    for (uint8_t byte : wire) {
        fb.append(&byte, 1);
        net::FleetFrameHeader h;
        const uint8_t *payload = nullptr;
        net::FleetParse st = fb.next(h, payload);
        if (st == net::FleetParse::Ok) {
            got.push_back(h);
            if (h.type == net::FleetFrameType::Syndrome) {
                ASSERT_EQ(h.payloadLen, 3u);  // priority + 2 codec.
                EXPECT_EQ(payload[0], 5u);
                EXPECT_EQ(payload[1], 0x00u);
                EXPECT_EQ(payload[2], 0xABu);
            }
        } else {
            ASSERT_EQ(st, net::FleetParse::NeedMore);
        }
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].type, net::FleetFrameType::Hello);
    EXPECT_EQ(got[1].type, net::FleetFrameType::Syndrome);
    EXPECT_EQ(got[1].streamId, 7u);
    EXPECT_EQ(got[1].seq, 3u);
    EXPECT_EQ(got[2].type, net::FleetFrameType::Verdict);
    EXPECT_EQ(fb.pending(), 0u);
}

TEST(FleetProtocol, MalformedPrefixesAreRejectedEagerly)
{
    net::FleetFrameHeader h;
    // Bad magic is detectable from the first two bytes.
    const uint8_t bad_magic[] = {0xFF, 0xFF};
    EXPECT_EQ(net::parseFleetHeader(bad_magic, 2, h),
              net::FleetParse::Malformed);
    // One byte is not enough to convict.
    EXPECT_EQ(net::parseFleetHeader(bad_magic, 1, h),
              net::FleetParse::NeedMore);

    std::vector<uint8_t> frame;
    net::appendFleetHello(frame, 16);
    // Bad version.
    std::vector<uint8_t> v = frame;
    v[2] = 99;
    EXPECT_EQ(net::parseFleetHeader(v.data(), v.size(), h),
              net::FleetParse::Malformed);
    // Bad type.
    std::vector<uint8_t> t = frame;
    t[3] = 7;
    EXPECT_EQ(net::parseFleetHeader(t.data(), t.size(), h),
              net::FleetParse::Malformed);
    // Oversized payload length.
    std::vector<uint8_t> p = frame;
    p[12] = 0xFF;
    p[13] = 0xFF;
    EXPECT_EQ(net::parseFleetHeader(p.data(), p.size(), h),
              net::FleetParse::Malformed);
}

TEST(FleetProtocol, TruncatedFrameNeverYields)
{
    std::vector<uint8_t> wire;
    const uint8_t codec[] = {0x01, 0x02, 0x03, 0x04};
    net::appendFleetSyndrome(wire, 1, 1, 0, codec, sizeof(codec));
    // Every proper prefix must report NeedMore, never Ok/Malformed.
    for (size_t cut = 0; cut < wire.size(); cut++) {
        net::FleetFrameBuffer fb;
        fb.append(wire.data(), cut);
        net::FleetFrameHeader h;
        const uint8_t *payload = nullptr;
        EXPECT_EQ(fb.next(h, payload), net::FleetParse::NeedMore)
            << "prefix of " << cut << " bytes";
    }
}

TEST(FleetProtocol, BitFlipFuzzNeverCrashesOrOverReads)
{
    std::vector<uint8_t> wire;
    const uint8_t codec[] = {0x01, 0x03, 0x00, 0x05, 0x0A};
    net::appendFleetSyndrome(wire, 9, 100, 3, codec, sizeof(codec));

    for (size_t bit = 0; bit < wire.size() * 8; bit++) {
        std::vector<uint8_t> mutated = wire;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        net::FleetFrameBuffer fb;
        fb.append(mutated.data(), mutated.size());
        net::FleetFrameHeader h;
        const uint8_t *payload = nullptr;
        const net::FleetParse st = fb.next(h, payload);
        if (st == net::FleetParse::Ok) {
            // Payload must lie entirely within the mutated buffer.
            ASSERT_LE(h.payloadLen, net::kFleetMaxPayload);
            ASSERT_LE(static_cast<size_t>(h.payloadLen),
                      mutated.size() - net::kFleetHeaderBytes);
        }
    }
}

// --------------------------------------------------- coalescing / shed

std::shared_ptr<const ExperimentContext>
smallContext()
{
    ExperimentConfig ec;
    ec.distance = 3;
    ec.physicalErrorRate = 1e-3;
    return std::make_shared<const ExperimentContext>(ec);
}

FleetJob
jobWith(uint32_t stream, uint32_t seq, uint8_t priority,
        std::initializer_list<uint32_t> defects)
{
    FleetJob j;
    j.streamId = stream;
    j.seq = seq;
    j.priority = priority;
    j.hw = static_cast<uint16_t>(defects.size());
    size_t i = 0;
    for (uint32_t d : defects)
        j.defects[i++] = d;
    return j;
}

TEST(DecodeFleet, PumpFlushesWhatItPoppedCappedAtMaxBatch)
{
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 64;
    fc.maxBatch = 4;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));

    uint64_t fake_now = 1000;
    fleet.setNowFunction([&fake_now] { return fake_now; });
    std::vector<FleetVerdict> verdicts;
    fleet.setVerdictSink(
        [&](const FleetVerdict &v) { verdicts.push_back(v); });

    // An empty ring flushes nothing.
    EXPECT_EQ(fleet.pumpShard(0, fake_now), 0u);

    // A lone shot flushes at once: nothing waits for company.
    FleetJob first = jobWith(0, 0, 0, {0, 1});
    ASSERT_EQ(fleet.submit(first), FleetSubmit::Enqueued);
    EXPECT_EQ(fleet.pumpShard(0, fake_now), 1u);
    ASSERT_EQ(verdicts.size(), 1u);

    // Six queued: one pump takes maxBatch, the next takes the rest.
    for (uint32_t i = 1; i <= 6; i++) {
        FleetJob j = jobWith(0, i, 0, {2, 3});
        ASSERT_EQ(fleet.submit(j), FleetSubmit::Enqueued);
    }
    EXPECT_EQ(fleet.pumpShard(0, fake_now), 4u);
    EXPECT_EQ(verdicts.size(), 5u);
    EXPECT_EQ(fleet.pumpShard(0, fake_now), 2u);
    EXPECT_EQ(fleet.pumpShard(0, fake_now), 0u);

    ASSERT_EQ(verdicts.size(), 7u);
    EXPECT_EQ(fleet.batchesTotal(), 3u);
    EXPECT_EQ(fleet.decodedTotal(), 7u);
    for (uint32_t i = 0; i < 7; i++) {
        EXPECT_EQ(verdicts[i].seq, i);
        EXPECT_FALSE(verdicts[i].shed);
    }
}

TEST(DecodeFleet, LatencyRunsFromSubmitToFlushStart)
{
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 64;
    fc.maxBatch = 100;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));

    uint64_t fake_now = 5000;
    fleet.setNowFunction([&fake_now] { return fake_now; });
    std::vector<FleetVerdict> verdicts;
    fleet.setVerdictSink(
        [&](const FleetVerdict &v) { verdicts.push_back(v); });

    FleetJob a = jobWith(0, 0, 0, {0});
    ASSERT_EQ(fleet.submit(a), FleetSubmit::Enqueued);
    fake_now = 5400;
    FleetJob b = jobWith(0, 1, 0, {1});
    ASSERT_EQ(fleet.submit(b), FleetSubmit::Enqueued);

    // Both shots flush together; each verdict's latency runs from its
    // own submit to the flush's start time.
    EXPECT_EQ(fleet.pumpShard(0, 6000), 2u);
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0].latencyNs, 1000u);
    EXPECT_EQ(verdicts[1].latencyNs, 600u);
}

TEST(DecodeFleet, FlushMarksEveryVerdictButTheLast)
{
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 8;
    fc.maxBatch = 4;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));
    fleet.setNowFunction([] { return uint64_t{1}; });
    std::vector<FleetVerdict> verdicts;
    fleet.setVerdictSink(
        [&](const FleetVerdict &v) { verdicts.push_back(v); });

    // Six shots: a flush of four (capped at maxBatch), then one of two.
    for (uint32_t i = 0; i < 6; i++) {
        FleetJob j = jobWith(0, i, 7, {0, 1});
        ASSERT_EQ(fleet.submit(j), FleetSubmit::Enqueued);
    }
    EXPECT_EQ(fleet.pumpShard(0, 2), 4u);
    EXPECT_EQ(fleet.pumpShard(0, 2), 2u);
    ASSERT_EQ(verdicts.size(), 6u);
    const bool want_more[] = {true, true, true, false, true, false};
    for (size_t i = 0; i < verdicts.size(); i++)
        EXPECT_EQ(verdicts[i].more, want_more[i]) << "verdict " << i;

    // A one-shot flush is its own last verdict, and a shed verdict is
    // never held back.
    FleetJob lone = jobWith(0, 6, 7, {0});
    ASSERT_EQ(fleet.submit(lone), FleetSubmit::Enqueued);
    EXPECT_EQ(fleet.pumpShard(0, 2), 1u);
    ASSERT_EQ(verdicts.size(), 7u);
    EXPECT_FALSE(verdicts[6].more);
    for (uint32_t i = 0; i < 9; i++) {
        FleetJob j = jobWith(0, 100 + i, 7, {0});
        fleet.submit(j);
    }
    ASSERT_EQ(fleet.shedTotal(), 1u);  // The ninth hits a full ring.
    ASSERT_EQ(verdicts.size(), 8u);
    EXPECT_TRUE(verdicts[7].shed);
    EXPECT_FALSE(verdicts[7].more);
}

TEST(DecodeFleet, CountsEachFlushBeforeItsVerdictsReachTheSink)
{
    // A client may read the counters as soon as it holds a verdict, so
    // a flush must be counted before its last verdict leaves.
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 8;
    fc.maxBatch = 4;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));
    std::vector<std::pair<uint64_t, uint64_t>> seen;
    fleet.setVerdictSink([&](const FleetVerdict &v) {
        if (!v.shed && !v.more)
            seen.push_back({fleet.batchesTotal(), fleet.decodedTotal()});
    });

    for (uint32_t i = 0; i < 6; i++) {
        FleetJob j = jobWith(0, i, 7, {0, 1});
        ASSERT_EQ(fleet.submit(j), FleetSubmit::Enqueued);
    }
    EXPECT_EQ(fleet.pumpShard(0, 2), 4u);
    EXPECT_EQ(fleet.pumpShard(0, 2), 2u);
    const std::vector<std::pair<uint64_t, uint64_t>> want{{1, 4}, {2, 6}};
    EXPECT_EQ(seen, want);

    // The service's accounting too: when a flush's first verdict
    // reaches the sink, totalDecodes() already holds the whole flush.
    ServeConfig sc;
    sc.distance = 3;
    sc.workers = 0;
    sc.fleetEnabled = true;
    sc.fleet = fc;
    DecodeServiceCore core(sc);
    DecodeFleet &served = *core.fleet();
    std::vector<uint64_t> at_first;
    bool first = true;
    served.setVerdictSink([&](const FleetVerdict &v) {
        if (v.shed)
            return;
        if (first)
            at_first.push_back(core.totalDecodes());
        first = !v.more;
    });
    for (uint32_t i = 0; i < 6; i++) {
        FleetJob j = jobWith(0, i, 7, {0, 1});
        ASSERT_EQ(served.submit(j), FleetSubmit::Enqueued);
    }
    EXPECT_EQ(served.pumpShard(0, 2), 4u);
    EXPECT_EQ(served.pumpShard(0, 2), 2u);
    EXPECT_EQ(at_first, (std::vector<uint64_t>{4, 6}));
}

TEST(DecodeFleet, PerShotAccountHookSeesEachShotOfTheFlushInOrder)
{
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 16;
    fc.maxBatch = 8;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));
    std::vector<size_t> hws;
    size_t verdicts_at_account = 0, verdicts = 0;
    fleet.setAccountHook([&](size_t hw, double, bool) {
        hws.push_back(hw);
        verdicts_at_account = verdicts;
    });
    fleet.setVerdictSink([&](const FleetVerdict &) { verdicts++; });
    for (uint32_t i = 0; i < 5; i++) {
        FleetJob j = jobWith(0, i, 7, {});
        j.hw = static_cast<uint16_t>(i % 3 == 0 ? 0 : 2);
        j.defects[0] = 0;
        j.defects[1] = 1;
        ASSERT_EQ(fleet.submit(j), FleetSubmit::Enqueued);
    }
    EXPECT_EQ(fleet.pumpShard(0, 1), 5u);
    EXPECT_EQ(hws, (std::vector<size_t>{0, 2, 2, 0, 2}));
    EXPECT_EQ(verdicts_at_account, 0u);  // All accounted first.
    EXPECT_EQ(verdicts, 5u);
}

TEST(DecodeFleet, WakesParkedWorkerForOneShotAndStopsPromptly)
{
    FleetConfig fc;
    fc.shards = 2;
    fc.ringCapacity = 64;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));

    std::mutex mu;
    std::condition_variable cv;
    std::vector<FleetVerdict> verdicts;
    fleet.setVerdictSink([&](const FleetVerdict &v) {
        std::lock_guard<std::mutex> lock(mu);
        verdicts.push_back(v);
        cv.notify_all();
    });

    auto all_parked = [&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (std::chrono::steady_clock::now() < deadline) {
            bool parked = true;
            for (unsigned i = 0; i < fc.shards; i++)
                parked = parked && fleet.workerParked(i);
            if (parked)
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false;
    };

    fleet.start();
    ASSERT_TRUE(all_parked()) << "idle workers never parked";

    // Nothing polls any more: only submit()'s wake can get this shot
    // decoded.
    FleetJob j = jobWith(3, 0, 7, {0, 1});
    ASSERT_EQ(fleet.submit(j), FleetSubmit::Enqueued);
    {
        std::unique_lock<std::mutex> lock(mu);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                                [&] { return !verdicts.empty(); }))
            << "parked worker was not woken";
        EXPECT_EQ(verdicts[0].streamId, 3u);
        EXPECT_FALSE(verdicts[0].shed);
    }
    EXPECT_EQ(fleet.decodedTotal(), 1u);

    ASSERT_TRUE(all_parked());
    const auto t0 = std::chrono::steady_clock::now();
    fleet.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(1))
        << "stop() did not wake the parked workers";
}

TEST(DecodeFleet, RequiredPriorityRampIsMonotoneAndSaturates)
{
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 16;
    fc.shedLowWatermark = 0.25;   // Ramp starts at depth 4.
    fc.shedHighWatermark = 0.75;  // Top priority from depth 12.
    fc.maxPriority = 7;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));

    EXPECT_EQ(fleet.requiredPriorityAtDepth(0), 0u);
    EXPECT_EQ(fleet.requiredPriorityAtDepth(3), 0u);
    EXPECT_EQ(fleet.requiredPriorityAtDepth(12), 7u);
    EXPECT_EQ(fleet.requiredPriorityAtDepth(16), 7u);
    uint8_t prev = 0;
    for (size_t depth = 0; depth <= 16; depth++) {
        const uint8_t req = fleet.requiredPriorityAtDepth(depth);
        EXPECT_GE(req, prev) << "ramp regressed at depth " << depth;
        EXPECT_LE(req, 7u);
        prev = req;
    }
}

TEST(DecodeFleet, ShedsLowestPriorityFirstThenRejectsOnFullRing)
{
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 8;
    fc.maxBatch = 64;
    fc.shedLowWatermark = 0.25;   // Depth 2.
    fc.shedHighWatermark = 0.75;  // Depth 6.
    fc.maxPriority = 7;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));
    fleet.setNowFunction([] { return uint64_t{1}; });

    std::vector<FleetVerdict> shed_verdicts;
    fleet.setVerdictSink([&](const FleetVerdict &v) {
        if (v.shed)
            shed_verdicts.push_back(v);
    });

    // Queue never drains (no pump): depth grows with each accept.
    // Priority 0 is admitted while depth < ramp threshold, then shed.
    uint32_t seq = 0;
    size_t admitted_p0 = 0;
    for (int i = 0; i < 4; i++) {
        FleetJob j = jobWith(1, seq++, 0, {0});
        if (fleet.submit(j) == FleetSubmit::Enqueued)
            admitted_p0++;
    }
    EXPECT_EQ(admitted_p0, 3u);  // Depths 0,1,2 admit; 3 sheds.
    ASSERT_EQ(shed_verdicts.size(), 1u);
    EXPECT_TRUE(shed_verdicts[0].shed);
    EXPECT_EQ(fleet.shedTotal(), 1u);
    EXPECT_EQ(fleet.ringFullTotal(), 0u);

    // Top priority sails past the ramp until the ring itself fills.
    size_t admitted_p7 = 0;
    FleetSubmit last = FleetSubmit::Enqueued;
    for (int i = 0; i < 6; i++) {
        FleetJob j = jobWith(1, seq++, 7, {0});
        last = fleet.submit(j);
        if (last == FleetSubmit::Enqueued)
            admitted_p7++;
    }
    EXPECT_EQ(admitted_p7, 5u);  // 3 + 5 = capacity 8.
    EXPECT_EQ(last, FleetSubmit::RingFull);
    EXPECT_EQ(fleet.ringFullTotal(), 1u);
    EXPECT_EQ(fleet.queueDepth(0), 8u);

    // Draining restores admission for everyone.
    EXPECT_EQ(fleet.flushShard(0, 2), 8u);
    FleetJob j = jobWith(1, seq++, 0, {0});
    EXPECT_EQ(fleet.submit(j), FleetSubmit::Enqueued);
}

TEST(DecodeFleet, GroupShedsWhatTheSameJobsOneAtATimeShed)
{
    // Two shards of 8 slots with the ramp from depth 2 to 6, already
    // holding a few jobs; then a 24-job group of mixed priorities, more
    // than the free space. A group and the same jobs submitted one at
    // a time must give the same outcomes, counters, shed verdicts (in
    // order) and, once drained, decoded verdicts.
    FleetConfig fc;
    fc.shards = 2;
    fc.ringCapacity = 8;
    fc.maxBatch = 64;
    fc.shedLowWatermark = 0.25;
    fc.shedHighWatermark = 0.75;
    fc.maxPriority = 7;

    struct Run
    {
        std::unique_ptr<DecodeFleet> fleet;
        std::vector<FleetVerdict> shed, decoded;
        std::vector<FleetSubmit> outcomes;
    };
    auto make = [&] {
        auto r = std::make_unique<Run>();
        r->fleet = std::make_unique<DecodeFleet>(
            fc, smallContext(), registryFactory("astrea"));
        r->fleet->setNowFunction([] { return uint64_t{1}; });
        Run *raw = r.get();
        r->fleet->setVerdictSink([raw](const FleetVerdict &v) {
            (v.shed ? raw->shed : raw->decoded).push_back(v);
        });
        for (uint32_t i = 0; i < 3; i++) {
            FleetJob j = jobWith(i, 1000 + i, 7, {0, 1});
            r->fleet->submit(j);
        }
        return r;
    };
    std::vector<FleetJob> jobs;
    for (uint32_t i = 0; i < 24; i++) {
        const uint8_t priority =
            static_cast<uint8_t>(i % 3 == 0 ? 7 : i * 3 % 8);
        jobs.push_back(jobWith(i % 5, i, priority, {i % 7, 7 + i % 5}));
    }

    auto single = make();
    for (FleetJob j : jobs)
        single->outcomes.push_back(single->fleet->submit(j));
    auto grouped = make();
    std::vector<FleetJob> group = jobs;
    grouped->outcomes.resize(group.size());
    const size_t enqueued =
        grouped->fleet->submitGroup(group, grouped->outcomes.data());

    EXPECT_EQ(grouped->outcomes, single->outcomes);
    EXPECT_EQ(enqueued, static_cast<size_t>(std::count(
                            single->outcomes.begin(),
                            single->outcomes.end(),
                            FleetSubmit::Enqueued)));
    for (auto *f : {single->fleet.get(), grouped->fleet.get()})
        EXPECT_EQ(f->enqueuedTotal() + f->shedTotal(), 3 + jobs.size());
    EXPECT_GT(single->fleet->shedTotal(), 0u);
    EXPECT_GT(single->fleet->ringFullTotal(), 0u);
    EXPECT_LT(single->fleet->shedTotal(), jobs.size());
    EXPECT_EQ(grouped->fleet->enqueuedTotal(),
              single->fleet->enqueuedTotal());
    EXPECT_EQ(grouped->fleet->shedTotal(), single->fleet->shedTotal());
    EXPECT_EQ(grouped->fleet->ringFullTotal(),
              single->fleet->ringFullTotal());

    auto key = [](const std::vector<FleetVerdict> &vs) {
        std::vector<std::tuple<uint32_t, uint32_t, uint64_t, bool>> k;
        for (const FleetVerdict &v : vs)
            k.emplace_back(v.streamId, v.seq, v.obsMask, v.gaveUp);
        return k;
    };
    EXPECT_EQ(key(grouped->shed), key(single->shed));
    for (auto *r : {single.get(), grouped.get()}) {
        for (unsigned sh = 0; sh < fc.shards; sh++)
            r->fleet->flushShard(sh, 2);
    }
    EXPECT_EQ(key(grouped->decoded), key(single->decoded));
    EXPECT_EQ(grouped->decoded.size(), single->fleet->enqueuedTotal());
}

TEST(DecodeFleet, ConcurrentGroupsGetOneVerdictEachInStreamOrder)
{
    // Three threads submit groups of 1-16 jobs into two running shards
    // whose rings are small enough to fill. Every job gets exactly one
    // verdict, decoded or shed, and each stream's decoded verdicts
    // arrive in the order its jobs were submitted.
    FleetConfig fc;
    fc.shards = 2;
    fc.ringCapacity = 64;
    fc.maxBatch = 8;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));

    constexpr unsigned kThreads = 3;
    constexpr uint32_t kStreamsPerThread = 4;
    constexpr uint32_t kJobsPerThread = 3000;
    std::mutex mu;
    std::map<uint32_t, std::vector<std::pair<uint32_t, bool>>> got;
    fleet.setVerdictSink([&](const FleetVerdict &v) {
        std::lock_guard<std::mutex> lock(mu);
        got[v.streamId].emplace_back(v.seq, v.shed);
    });
    fleet.start();

    std::vector<std::thread> producers;
    for (unsigned t = 0; t < kThreads; t++) {
        producers.emplace_back([&fleet, t] {
            Rng rng(100 + t);
            std::vector<FleetJob> group(16);
            uint32_t next = 0;
            while (next < kJobsPerThread) {
                const size_t n = std::min<size_t>(
                    1 + rng.uniformInt(16), kJobsPerThread - next);
                for (size_t i = 0; i < n; i++, next++) {
                    group[i] = jobWith(
                        100 * t + next % kStreamsPerThread,
                        next / kStreamsPerThread, 7,
                        {next % 9, 9 + next % 4});
                }
                fleet.submitGroup({group.data(), n});
            }
        });
    }
    for (auto &p : producers)
        p.join();
    fleet.stop();  // Drains every ring.

    const uint64_t total = uint64_t{kThreads} * kJobsPerThread;
    EXPECT_EQ(fleet.enqueuedTotal() + fleet.shedTotal(), total);
    EXPECT_EQ(fleet.decodedTotal(), fleet.enqueuedTotal());
    size_t verdicts = 0;
    for (auto &[stream, vs] : got) {
        std::vector<bool> seen(kJobsPerThread / kStreamsPerThread, false);
        int64_t last_decoded = -1;
        for (const auto &[seq, shed] : vs) {
            ASSERT_LT(seq, seen.size()) << "stream " << stream;
            EXPECT_FALSE(seen[seq])
                << "stream " << stream << " seq " << seq << " twice";
            seen[seq] = true;
            if (!shed) {
                EXPECT_GT(static_cast<int64_t>(seq), last_decoded)
                    << "stream " << stream << " out of order";
                last_decoded = seq;
            }
        }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
                  static_cast<ptrdiff_t>(seen.size()))
            << "stream " << stream;
        verdicts += vs.size();
    }
    EXPECT_EQ(got.size(), size_t{kThreads} * kStreamsPerThread);
    EXPECT_EQ(verdicts, total);
}

TEST(DecodeFleet, ShardMappingIsStableAndCoversAllShards)
{
    FleetConfig fc;
    fc.shards = 4;
    DecodeFleet fleet(fc, smallContext(), registryFactory("astrea"));
    std::vector<bool> hit(4, false);
    for (uint32_t id = 0; id < 256; id++) {
        const unsigned s = fleet.shardFor(id);
        ASSERT_LT(s, 4u);
        EXPECT_EQ(s, fleet.shardFor(id));  // Deterministic.
        hit[s] = true;
    }
    for (unsigned s = 0; s < 4; s++)
        EXPECT_TRUE(hit[s]) << "shard " << s << " never selected";
}

// ------------------------------------------------- TCP ingest parity

/** A raw loopback ingest connection with a 5 s receive timeout and
 *  the server's Hello (14-byte header + 4-byte payload) drained; -1 on
 *  failure. */
int
connectIngest(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    uint8_t hello[18];
    size_t have = 0;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        while (have < sizeof(hello)) {
            ssize_t n =
                ::recv(fd, hello + have, sizeof(hello) - have, 0);
            if (n <= 0)
                break;
            have += static_cast<size_t>(n);
        }
    }
    if (have < sizeof(hello)) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Read Verdict frames off fd until `count` arrived, EOF, or the
 *  receive timeout. */
std::vector<net::FleetFrameHeader>
readVerdictFrames(int fd, size_t count)
{
    std::vector<net::FleetFrameHeader> got;
    net::FleetFrameBuffer fb;
    uint8_t buf[4096];
    while (got.size() < count) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        fb.append(buf, static_cast<size_t>(n));
        net::FleetFrameHeader h;
        const uint8_t *payload = nullptr;
        while (fb.next(h, payload) == net::FleetParse::Ok) {
            if (h.type == net::FleetFrameType::Verdict)
                got.push_back(h);
        }
    }
    return got;
}

TEST(FleetIngest, TcpRoundTripMatchesDirectDecodeBatch)
{
    ExperimentConfig ec;
    ec.distance = 5;
    ec.physicalErrorRate = 1e-3;
    auto ctx = std::make_shared<const ExperimentContext>(ec);

    FleetConfig fc;
    fc.shards = 2;
    fc.ringCapacity = 512;
    fc.maxBatch = 16;
    DecodeFleet fleet(fc, ctx, registryFactory("astrea"));
    net::FleetServer server(fleet);
    fleet.setVerdictSink(
        [&server](const FleetVerdict &v) { server.deliver(v); });

    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0, &error)) << error;
    fleet.start();

    net::FleetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    ASSERT_EQ(client.numDetectorBits(),
              static_cast<uint32_t>(ctx->circuit().numDetectors()));

    // Sample real syndromes in Astrea's supported range.
    Rng rng(77);
    BitVec dets, obs;
    std::vector<std::vector<uint32_t>> syndromes;
    size_t guard = 0;
    while (syndromes.size() < 96 && ++guard < 2000000) {
        ctx->sampler().sample(rng, dets, obs);
        const size_t hw = dets.popcount();
        if (hw >= 1 && hw <= 10)
            syndromes.push_back(dets.onesIndices());
    }
    ASSERT_GE(syndromes.size(), 64u);

    // Top priority everywhere: this test measures parity, not
    // shedding, and the load is far below the watermarks anyway.
    for (uint32_t i = 0; i < syndromes.size(); i++)
        ASSERT_TRUE(client.sendShot(i % 8, i, fc.maxPriority,
                                    syndromes[i]));
    ASSERT_TRUE(client.flush());

    std::vector<net::FleetClientVerdict> got(syndromes.size());
    for (size_t i = 0; i < syndromes.size(); i++) {
        net::FleetClientVerdict v;
        ASSERT_TRUE(client.readVerdict(v)) << "verdict " << i;
        ASSERT_LT(v.seq, got.size());
        EXPECT_FALSE(v.shed);
        EXPECT_FALSE(v.error);
        got[v.seq] = v;
    }

    client.close();
    fleet.stop();
    server.stop();

    // The same syndromes through the same factory, directly.
    auto dec = registryFactory("astrea")(*ctx);
    SyndromeBatch batch;
    for (const auto &s : syndromes)
        batch.add(s);
    std::vector<DecodeResult> direct;
    DecodeScratch scratch;
    dec->decodeBatch(batch, direct, scratch);
    ASSERT_EQ(direct.size(), syndromes.size());

    for (size_t i = 0; i < syndromes.size(); i++) {
        EXPECT_EQ(got[i].obsMask, direct[i].obsMask) << "shot " << i;
        EXPECT_EQ(got[i].gaveUp, direct[i].gaveUp) << "shot " << i;
    }
    EXPECT_EQ(fleet.decodedTotal(), syndromes.size());
    EXPECT_EQ(fleet.shedTotal(), 0u);
    EXPECT_EQ(fleet.malformedTotal(), 0u);
}

TEST(FleetIngest, OneFlushWritesEveryConnectionItTouched)
{
    // One shard, never started: the test pumps it once, so a single
    // flush carries the verdicts of both connections. When pumpShard
    // returns they must already be on the wire.
    auto ctx = smallContext();
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 64;
    fc.maxBatch = 64;
    DecodeFleet fleet(fc, ctx, registryFactory("astrea"));
    net::FleetServer server(fleet);
    fleet.setVerdictSink(
        [&server](const FleetVerdict &v) { server.deliver(v); });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0, &error)) << error;

    constexpr uint32_t kShots = 12;
    const int fds[2] = {connectIngest(server.port()),
                        connectIngest(server.port())};
    ASSERT_GE(fds[0], 0);
    ASSERT_GE(fds[1], 0);

    // Interleave the two connections' shots; stream ids 0-2 on the
    // first connection and 100-102 on the second.
    BitVec dets(fleet.numDetectorBits());
    dets.set(0);
    dets.set(1);
    std::vector<uint8_t> codec;
    encodeSyndromeInto(dets, SyndromeCodec::Sparse, codec);
    for (uint32_t i = 0; i < kShots; i++) {
        for (int c = 0; c < 2; c++) {
            std::vector<uint8_t> frame;
            net::appendFleetSyndrome(frame, 100 * c + i % 3, i, 7,
                                     codec.data(), codec.size());
            ASSERT_EQ(::send(fds[c], frame.data(), frame.size(),
                             MSG_NOSIGNAL),
                      static_cast<ssize_t>(frame.size()));
        }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (fleet.queueDepth(0) < 2 * kShots &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(fleet.queueDepth(0), 2 * kShots);

    EXPECT_EQ(fleet.pumpShard(0, 1), 2 * kShots);
    EXPECT_EQ(fleet.batchesTotal(), 1u);

    for (int c = 0; c < 2; c++) {
        const auto got = readVerdictFrames(fds[c], kShots);
        ASSERT_EQ(got.size(), kShots) << "connection " << c;
        std::vector<bool> seen(kShots, false);
        for (const auto &h : got) {
            EXPECT_EQ(h.streamId, 100 * c + h.seq % 3);
            ASSERT_LT(h.seq, kShots);
            EXPECT_FALSE(seen[h.seq]) << "duplicate seq " << h.seq;
            seen[h.seq] = true;
        }
        ::close(fds[c]);
    }
    server.stop();
}

TEST(FleetIngest, MalformedFrameClosesConnection)
{
    auto ctx = smallContext();
    FleetConfig fc;
    fc.shards = 1;
    DecodeFleet fleet(fc, ctx, registryFactory("astrea"));
    net::FleetServer server(fleet);
    fleet.setVerdictSink(
        [&server](const FleetVerdict &v) { server.deliver(v); });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0, &error)) << error;

    int fd = connectIngest(server.port());
    ASSERT_GE(fd, 0);

    // Garbage: the server must close, not desynchronize or crash.
    uint8_t junk[32];
    std::memset(junk, 0xFF, sizeof(junk));
    ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(junk)));

    uint8_t byte;
    ssize_t n = ::recv(fd, &byte, 1, 0);
    EXPECT_LE(n, 0) << "server kept talking after a malformed frame";
    ::close(fd);

    server.stop();
    EXPECT_GE(fleet.malformedTotal(), 1u);
    EXPECT_EQ(fleet.decodedTotal(), 0u);
}

} // namespace
} // namespace astrea

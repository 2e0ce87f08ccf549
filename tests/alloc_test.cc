/**
 * @file
 * Steady-state allocation test for the batch decode path.
 *
 * This binary links src/common/alloc_hook.cc, which replaces the global
 * operator new/delete with counting versions. After a warm-up pass that
 * lets every reusable buffer (DecodeResult, DecodeScratch, the decoder
 * extension slots, LUT memoization) reach its steady-state capacity, a
 * full decode pass over HW <= 10 syndromes must perform zero heap
 * allocations for the hardware decoders: astrea, astrea-g, greedy and
 * lut, and so must Astrea-G's pipeline path above HW 10 with
 * telemetry collection on. The same bar holds with per-decode tail
 * tracing armed and every trace retained, with a capture armed (after
 * the recent-decode ring's one allocation), for the harness's shot
 * loop after a worker's first block, for the audit queue's
 * producer side, for the fleet's ingest -> decode -> account ->
 * verdict-send path as the decode service composes it (syndromes it
 * has not decoded before included), and for the
 * fleet client's frame encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include <atomic>
#include <chrono>
#include <thread>

#include "audit/auditor.hh"
#include "compression/syndrome_codec.hh"
#include "common/alloc_counter.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "decoders/registry.hh"
#include "harness/block_engine.hh"
#include "harness/decode_service.hh"
#include "harness/fleet.hh"
#include "harness/memory_experiment.hh"
#include "net/fleet_client.hh"
#include "net/fleet_protocol.hh"
#include "net/fleet_server.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/metrics.hh"

namespace astrea
{
namespace
{

TEST(AllocCounter, HookIsInstalled)
{
    ASSERT_TRUE(allocHookInstalled());
    const uint64_t before = allocCount();
    auto *p = new int(42);
    EXPECT_GT(allocCount(), before);
    delete p;
}

TEST(AllocCounter, SteadyStateDecodeIsAllocationFree)
{
    ExperimentConfig cfg;
    cfg.distance = 5;
    cfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(cfg);
    DecoderOptions opts = decoderOptionsFor(ctx);

    // Pre-sample syndromes inside Astrea's supported range so gaveUp
    // shots (which would be trivially allocation-free) don't dilute
    // the measurement.
    Rng rng(99);
    BitVec dets, obs;
    std::vector<std::vector<uint32_t>> syndromes;
    size_t guard = 0;
    while (syndromes.size() < 200 && ++guard < 2000000) {
        ctx.sampler().sample(rng, dets, obs);
        const size_t hw = dets.popcount();
        if (hw >= 1 && hw <= 10)
            syndromes.push_back(dets.onesIndices());
    }
    ASSERT_GE(syndromes.size(), 100u);
    size_t max_hw = 0;
    for (const auto &s : syndromes)
        max_hw = std::max(max_hw, s.size());
    EXPECT_GE(max_hw, 3u) << "sampled only trivial syndromes";

    for (const std::string &name :
         {std::string("astrea"), std::string("astrea-g"),
          std::string("greedy"), std::string("lut")}) {
        SCOPED_TRACE(name);
        auto dec = makeDecoder(name, opts);
        DecodeResult dr;
        DecodeScratch scratch;
        // Two warm-up passes: the first grows buffers and populates
        // memoization, the second confirms capacities are settled.
        for (int pass = 0; pass < 2; pass++) {
            for (const auto &s : syndromes)
                dec->decodeInto(s, dr, scratch);
        }
        const uint64_t before = allocCount();
        for (const auto &s : syndromes)
            dec->decodeInto(s, dr, scratch);
        const uint64_t allocs = allocCount() - before;
        EXPECT_EQ(allocs, 0u)
            << name << " allocated " << allocs << " times across "
            << syndromes.size() << " steady-state decodes";
    }
}

TEST(AllocCounter, SteadyStateBatchDecodeIsAllocationFree)
{
    // The shot-major wide path: decodeBatch over mixed-HW batches
    // (trivial, bucketed, give-up shots interleaved) must not touch
    // the heap once the SoA tile block, the results vector and the
    // bucket order scratch have reached steady-state capacity.
    ExperimentConfig cfg;
    cfg.distance = 5;
    cfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(cfg);
    DecoderOptions opts = decoderOptionsFor(ctx);

    Rng rng(4242);
    BitVec dets, obs;
    std::vector<std::vector<uint32_t>> syndromes;
    size_t guard = 0;
    while (syndromes.size() < 180 && ++guard < 2000000) {
        ctx.sampler().sample(rng, dets, obs);
        if (dets.popcount() >= 1)
            syndromes.push_back(dets.onesIndices());
    }
    ASSERT_GE(syndromes.size(), 100u);
    // Force give-up shots into the mix (HW 12 > Astrea's max of 10;
    // Astrea-G routes them through its pipeline instead).
    std::vector<uint32_t> heavy;
    for (uint32_t i = 0; i < 12; i++)
        heavy.push_back(i);
    syndromes.push_back(heavy);
    syndromes.push_back(heavy);

    SyndromeBatch batch;
    for (const auto &s : syndromes)
        batch.add(s);

    for (const std::string &name :
         {std::string("astrea"), std::string("astrea-g")}) {
        SCOPED_TRACE(name);
        auto dec = makeDecoder(name, opts);
        std::vector<DecodeResult> results;
        DecodeScratch scratch;
        for (int pass = 0; pass < 2; pass++)
            dec->decodeBatch(batch, results, scratch);
        const uint64_t before = allocCount();
        dec->decodeBatch(batch, results, scratch);
        const uint64_t allocs = allocCount() - before;
        EXPECT_EQ(allocs, 0u)
            << name << " decodeBatch allocated " << allocs
            << " times across " << batch.size()
            << " steady-state batched decodes";
    }
}

TEST(AllocCounter, AstreaGPipelineWithTelemetryIsAllocationFree)
{
    // Astrea-G's pipeline path (HW above the exhaustive cutoff) with
    // telemetry collection on, as every --json-out bench and the
    // decode service run it: its counters resolve their handles once
    // and its stage spans are the tracer's, so after warm-up a decode
    // touches no heap.
    ExperimentConfig cfg;
    cfg.distance = 9;
    cfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(cfg);
    auto dec = makeDecoder("astrea-g", decoderOptionsFor(ctx));
    const uint32_t cutoff = AstreaGConfig{}.exhaustiveMaxHw;

    Rng rng(41);
    BitVec dets, obs;
    std::vector<std::vector<uint32_t>> syndromes;
    size_t guard = 0;
    while (syndromes.size() < 200 && ++guard < 2000000) {
        ctx.sampler().sample(rng, dets, obs);
        const size_t hw = dets.popcount();
        if (hw > cutoff && hw <= 20)
            syndromes.push_back(dets.onesIndices());
    }
    ASSERT_EQ(syndromes.size(), 200u);

    telemetry::setEnabled(true);
    DecodeResult dr;
    DecodeScratch scratch;
    auto pass = [&] {
        for (const auto &s : syndromes)
            dec->decodeInto(s, dr, scratch);
    };
    pass();
    pass();
    const uint64_t before = allocCount();
    pass();
    const uint64_t allocs = allocCount() - before;
    telemetry::setEnabled(false);
    EXPECT_EQ(allocs, 0u)
        << "astrea-g allocated " << allocs << " times across "
        << syndromes.size() << " pipeline decodes with telemetry on";
}

TEST(AllocCounter, TracedDecodeIsAllocationFree)
{
    // The tail-tracing hot path must stay allocation-free even in its
    // worst case: tracing enabled, every span recorded, and every
    // decode retained (stride 1 forces a TraceStore publish per shot,
    // i.e. ring slot + exemplar-table updates on top of the buffered
    // spans).
    telemetry::TraceStore::global().configure(256);
    telemetry::TraceRetentionConfig tc;
    tc.enabled = true;
    tc.tailThresholdNs = 1.0;
    tc.headStride = 1;
    telemetry::setTraceRetention(tc);

    ExperimentConfig cfg;
    cfg.distance = 5;
    cfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(cfg);
    DecoderOptions opts = decoderOptionsFor(ctx);

    Rng rng(123);
    BitVec dets, obs;
    std::vector<std::vector<uint32_t>> syndromes;
    size_t guard = 0;
    while (syndromes.size() < 200 && ++guard < 2000000) {
        ctx.sampler().sample(rng, dets, obs);
        const size_t hw = dets.popcount();
        if (hw >= 1 && hw <= 10)
            syndromes.push_back(dets.onesIndices());
    }
    ASSERT_GE(syndromes.size(), 100u);

    auto dec = makeDecoder("astrea", opts);
    DecodeResult dr;
    DecodeScratch scratch;
    telemetry::DecodeTracer &tracer = telemetry::decodeTracer();

    auto pass = [&](uint64_t base_shot) {
        tracer.beginBatch(0, base_shot, "astrea", 42);
        ASSERT_TRUE(tracer.active());
        for (uint32_t i = 0; i < syndromes.size(); i++) {
            telemetry::traceShotBegin(i);
            dec->decodeInto(syndromes[i], dr, scratch);
            telemetry::TraceShotOutcome out;
            out.latencyNs = dr.latencyNs;
            out.cycles = dr.cycles;
            out.matchingWeight = dr.matchingWeight;
            out.obsMask = dr.obsMask;
            out.gaveUp = dr.gaveUp;
            out.defects = syndromes[i].data();
            out.hw = static_cast<uint32_t>(syndromes[i].size());
            tracer.finishShot(i, out);
        }
        tracer.endBatch();
    };

    // Warm-up settles decoder buffers and the trace ring, then the
    // measured pass must not touch the heap at all.
    pass(0);
    pass(1000);
    const uint64_t before = allocCount();
    pass(2000);
    const uint64_t allocs = allocCount() - before;
    EXPECT_EQ(allocs, 0u)
        << "traced decode allocated " << allocs << " times across "
        << syndromes.size() << " retained decodes";
    EXPECT_GE(telemetry::TraceStore::global().counters().kept,
              3 * static_cast<uint64_t>(syndromes.size()));

    // With a capture armed, the tracer also keeps its recent-decode
    // ring: one allocation on the thread's first armed batch, then
    // nothing for shots that trigger no capture, with tracing off or
    // on.
    telemetry::TraceRetentionConfig off;
    off.enabled = false;
    telemetry::setTraceRetention(off);
    telemetry::TraceStore &store = telemetry::TraceStore::global();
    store.setCaptureDir(::testing::TempDir());
    const uint64_t written = store.capturesWritten();
    const uint64_t first_armed = allocCount();
    pass(3000);
    EXPECT_EQ(allocCount() - first_armed, 1u)
        << "the ring should be the armed tracer's one allocation";
    const uint64_t armed = allocCount();
    pass(4000);
    telemetry::setTraceRetention(tc);
    pass(5000);
    const uint64_t armed_allocs = allocCount() - armed;
    store.setCaptureDir("");
    telemetry::setTraceRetention(off);
    EXPECT_EQ(armed_allocs, 0u)
        << "capture-armed decode allocated " << armed_allocs << " times";
    EXPECT_EQ(store.capturesWritten(), written);
}

TEST(AllocCounter, BlockEngineShotLoopIsAllocationFree)
{
    // The harness's one shot loop (harness/block_engine.hh): sample,
    // decodeBatch, sink, with the tracer armed and every trace kept.
    // A worker's first block sizes its buffers; its next block must
    // not touch the heap.
    telemetry::TraceStore::global().configure(256);
    telemetry::TraceRetentionConfig tc;
    tc.enabled = true;
    tc.tailThresholdNs = 1.0;
    tc.headStride = 1;
    telemetry::setTraceRetention(tc);

    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(cfg);
    auto dec = makeDecoder("astrea", decoderOptionsFor(ctx));
    ShotStream stream(11, 2 * kBlockShots, 0);
    std::atomic<uint64_t> next_block{0};
    uint64_t shots = 0, nontrivial = 0;
    auto sink = [&](uint64_t, const telemetry::TraceShotOutcome &o) {
        shots++;
        nontrivial += o.hw > 0 ? 1 : 0;
    };

    ASSERT_TRUE(stream.nextBlock(next_block));
    stream.decode(ctx, stream.remaining(), *dec, "astrea", nullptr, sink);
    const uint64_t kept = telemetry::TraceStore::global().counters().kept;
    const uint64_t before = allocCount();
    ASSERT_TRUE(stream.nextBlock(next_block));
    stream.decode(ctx, stream.remaining(), *dec, "astrea", nullptr, sink);
    const uint64_t allocs = allocCount() - before;

    telemetry::TraceRetentionConfig off;
    off.enabled = false;
    telemetry::setTraceRetention(off);
    EXPECT_EQ(allocs, 0u) << "the second block allocated " << allocs
                          << " times";
    EXPECT_EQ(shots, 2 * kBlockShots);
    EXPECT_GT(nontrivial, 0u);
    EXPECT_EQ(telemetry::TraceStore::global().counters().kept - kept,
              kBlockShots);
}

TEST(AllocCounter, AuditEnqueueIsAllocationFree)
{
    // The auditor's hot-path hook: offer() must not allocate, whether
    // it rejects by stride, drops on a full queue, or enqueues — the
    // queue's storage is all preallocated at construction.
    ExperimentConfig cfg;
    cfg.distance = 5;
    cfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(cfg);

    Rng rng(7);
    BitVec dets, obs;
    std::vector<std::vector<uint32_t>> syndromes;
    size_t guard = 0;
    while (syndromes.size() < 200 && ++guard < 2000000) {
        ctx.sampler().sample(rng, dets, obs);
        if (dets.popcount() >= 1)
            syndromes.push_back(dets.onesIndices());
    }
    ASSERT_GE(syndromes.size(), 100u);

    AuditConfig acfg;
    acfg.sampleRate = 1.0;
    acfg.queueCapacity = 1024;  // Roomy: every offer enqueues.
    AccuracyAuditor auditor(ctx.gwt(), acfg);

    DecodeResult dr;
    dr.obsMask = 0;
    dr.matchingWeight = 1.0;

    // Warm-up pass, then measure (enqueue-only; the pool is not
    // running, so this isolates the producer side).
    for (const auto &s : syndromes)
        auditor.offer(0, 0, s, dr, 0);
    const uint64_t before = allocCount();
    for (const auto &s : syndromes)
        auditor.offer(1, 0, s, dr, 0);
    const uint64_t allocs = allocCount() - before;
    EXPECT_EQ(allocs, 0u)
        << "audit enqueue allocated " << allocs << " times across "
        << syndromes.size() << " offers";
}

TEST(AllocCounter, ThreadPoolRawEnqueueIsAllocationFree)
{
    // enqueueRaw() must hand work to the pool without constructing a
    // std::function or touching the heap; enqueue() (the
    // std::function path) is allowed to allocate, which is exactly
    // why the raw path exists.
    ThreadPool pool(2);
    pool.reserveRawSlots(256);

    std::atomic<uint64_t> ran{0};
    auto bump = [](void *arg) {
        static_cast<std::atomic<uint64_t> *>(arg)->fetch_add(
            1, std::memory_order_relaxed);
    };

    // Warm-up: settle any lazy one-time state in the pool/OS.
    for (int i = 0; i < 64; i++) {
        while (!pool.enqueueRaw(bump, &ran))
            std::this_thread::yield();
    }
    while (ran.load() < 64)
        std::this_thread::yield();

    const uint64_t before = allocCount();
    for (int i = 0; i < 200; i++) {
        while (!pool.enqueueRaw(bump, &ran))
            std::this_thread::yield();
    }
    const uint64_t allocs = allocCount() - before;
    EXPECT_EQ(allocs, 0u)
        << "enqueueRaw allocated " << allocs << " times across 200 "
        << "steady-state submissions";

    while (ran.load() < 264)
        std::this_thread::yield();
    pool.shutdown();
    EXPECT_EQ(ran.load(), 264u);
}

TEST(AllocCounter, FleetIngestToDecodePathIsAllocationFree)
{
    // The full wire-to-verdict hot path, driven synchronously the way
    // a reader thread + shard worker would: accumulate one recv()'s
    // frame bytes, parse them, decode each codec payload straight into
    // a job of the connection's group, submit the group through the
    // shedding ramp, pump the shard through decodeBatch. After
    // warm-up, none of it may touch the allocator.
    ExperimentConfig ecfg;
    ecfg.distance = 5;
    ecfg.physicalErrorRate = 1e-3;
    auto ctx = std::make_shared<const ExperimentContext>(ecfg);

    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 512;
    fc.maxBatch = 32;
    DecodeFleet fleet(fc, ctx, registryFactory("astrea"));
    uint64_t fake_now = 1;
    fleet.setNowFunction([&fake_now] { return fake_now; });
    std::atomic<uint64_t> verdicts{0};
    fleet.setVerdictSink(
        [&verdicts](const FleetVerdict &) { verdicts++; });

    // Pre-encode wire bytes for 128 sampled syndromes, 16 frames per
    // simulated recv() (client side; the measured region is the
    // server side).
    const uint32_t bits = fleet.numDetectorBits();
    constexpr size_t frames_total = 128;
    Rng rng(31);
    BitVec dets, obs;
    uint32_t seq = 0;
    auto encode_pass = [&] {
        std::vector<std::vector<uint8_t>> recvs(1);
        size_t frames = 0;
        size_t guard = 0;
        while (frames < frames_total && ++guard < 2000000) {
            ctx->sampler().sample(rng, dets, obs);
            const size_t hw = dets.popcount();
            if (hw < 1 || hw > 10)
                continue;
            if (frames > 0 && frames % 16 == 0)
                recvs.emplace_back();
            net::appendFleetSyndrome(recvs.back(), seq % 16, seq, 7,
                                     dets.onesIndices(), bits,
                                     SyndromeCodec::Sparse);
            frames++;
            seq++;
        }
        EXPECT_EQ(frames, frames_total);
        return recvs;
    };
    const std::vector<std::vector<uint8_t>> recvs = encode_pass();
    // Syndromes the shard has never decoded: a result slot must not
    // grow its pair buffer for a matching wider than it has held.
    std::vector<std::vector<std::vector<uint8_t>>> fresh;
    for (int pass = 0; pass < 20; pass++)
        fresh.push_back(encode_pass());

    // Reused server-side state, exactly like net::FleetServer's
    // per-connection buffers.
    net::FleetFrameBuffer frames;
    std::vector<FleetJob> group(fc.maxBatch);

    auto ingest_all = [&](const std::vector<std::vector<uint8_t>> &pass) {
        for (const auto &bytes : pass) {
            fake_now++;
            frames.append(bytes.data(), bytes.size());
            net::FleetFrameHeader h;
            const uint8_t *payload = nullptr;
            size_t queued = 0;
            while (frames.next(h, payload) == net::FleetParse::Ok) {
                FleetJob &job = group[queued++];
                size_t hw = 0;
                ASSERT_TRUE(tryDecodeDefects(payload + 1,
                                             h.payloadLen - 1u, bits,
                                             job.defects, hw));
                job.streamId = h.streamId;
                job.seq = h.seq;
                job.priority = payload[0];
                job.hw = static_cast<uint16_t>(hw);
            }
            ASSERT_EQ(fleet.submitGroup({group.data(), queued}), queued);
            fleet.pumpShard(0, fake_now);
        }
        fleet.flushShard(0, fake_now);
    };

    // Two warm-up passes settle every reused buffer (frame
    // accumulator, SyndromeBatch, decoder scratch).
    ingest_all(recvs);
    ingest_all(recvs);
    const uint64_t before = allocCount();
    ingest_all(recvs);
    const uint64_t allocs = allocCount() - before;
    EXPECT_EQ(allocs, 0u)
        << "fleet ingest->decode allocated " << allocs
        << " times across " << frames_total << " steady-state shots";

    // The frame accumulator grows to the largest burst it has seen, as
    // a connection's does. It sees the fresh bursts first, so the
    // measured passes show what the shard does with syndromes it has
    // never decoded.
    for (const auto &pass : fresh) {
        for (const auto &bytes : pass) {
            frames.append(bytes.data(), bytes.size());
            net::FleetFrameHeader h;
            const uint8_t *payload = nullptr;
            while (frames.next(h, payload) == net::FleetParse::Ok) {
            }
        }
    }
    const uint64_t fresh_before = allocCount();
    for (const auto &pass : fresh)
        ingest_all(pass);
    const uint64_t fresh_allocs = allocCount() - fresh_before;
    EXPECT_EQ(fresh_allocs, 0u)
        << "fleet ingest->decode allocated " << fresh_allocs
        << " times across " << fresh.size() << " passes of "
        << frames_total << " fresh syndromes";
    const uint64_t passes = 3 + fresh.size();
    EXPECT_EQ(verdicts.load(), passes * frames_total);
    EXPECT_EQ(fleet.decodedTotal(), passes * frames_total);
}

TEST(AllocCounter, FleetServeCompositionIsAllocationFree)
{
    // The fleet as serve and perfbench compose it: the service core's
    // accountFleetFlush as the flush account hook and
    // FleetServer::deliver as the verdict sink, writing to one real
    // loopback connection, with jobs submitted in groups. Tiny drift
    // buckets make the drift monitor rotate every 8 shots inside the
    // measured pass; the shard is pumped synchronously.
    ServeConfig sc;
    sc.distance = 5;
    sc.physicalErrorRate = 1e-3;
    sc.workers = 0;
    sc.warmupShots = 64;
    sc.driftBucketShots = 8;
    // Buckets this small are noisy; a threshold above chi-square's
    // range of [0, 1] keeps the (allocating) alarm log out of the
    // measurement.
    sc.driftThreshold = 2.0;
    sc.fleetEnabled = true;
    sc.fleet.shards = 1;
    sc.fleet.ringCapacity = 512;
    sc.fleet.maxBatch = 32;
    DecodeServiceCore core(sc);
    DecodeFleet &fleet = *core.fleet();
    net::FleetServer server(fleet);
    fleet.setVerdictSink(
        [&server](const FleetVerdict &v) { server.deliver(v); });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0, &error)) << error;
    net::FleetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    // Jobs routed back to the client's connection (the first accepted
    // connection has id 0).
    ExperimentConfig ecfg;
    ecfg.distance = 5;
    ecfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(ecfg);
    Rng rng(57);
    BitVec dets, obs;
    std::vector<FleetJob> jobs;
    size_t guard = 0;
    while (jobs.size() < 128 && ++guard < 2000000) {
        ctx.sampler().sample(rng, dets, obs);
        const std::vector<uint32_t> defects = dets.onesIndices();
        if (defects.size() > 10)
            continue;
        FleetJob j;
        j.streamId = static_cast<uint32_t>(jobs.size() % 16);
        j.seq = static_cast<uint32_t>(jobs.size());
        j.connId = 0;
        j.priority = fleet.config().maxPriority;
        j.hw = static_cast<uint16_t>(defects.size());
        std::copy(defects.begin(), defects.end(), j.defects.begin());
        jobs.push_back(j);
    }
    ASSERT_EQ(jobs.size(), 128u);

    // Groups of 8 as the reader submits them, each pumped as one
    // flush, and a lone shot ahead of every fourth group; then a drain.
    std::vector<FleetJob> group;
    group.reserve(8);
    auto pass = [&] {
        for (size_t i = 0; i < jobs.size(); i += 8) {
            if (i % 32 == 0) {
                FleetJob lone = jobs[i];
                ASSERT_EQ(fleet.submit(lone), FleetSubmit::Enqueued);
            }
            group.assign(jobs.begin() + static_cast<ptrdiff_t>(
                                            i + (i % 32 == 0 ? 1 : 0)),
                         jobs.begin() + static_cast<ptrdiff_t>(i + 8));
            ASSERT_EQ(fleet.submitGroup(group), group.size());
            fleet.pumpShard(0, i);
        }
        fleet.flushShard(0, jobs.size());
    };
    auto read_all = [&] {
        net::FleetClientVerdict v;
        for (size_t i = 0; i < jobs.size(); i++) {
            ASSERT_TRUE(client.readVerdict(v)) << "verdict " << i;
            EXPECT_FALSE(v.shed);
        }
    };

    pass();
    read_all();
    pass();
    read_all();
    const uint64_t before = allocCount();
    pass();
    const uint64_t allocs = allocCount() - before;
    read_all();
    EXPECT_EQ(allocs, 0u)
        << "serve-composed fleet allocated " << allocs << " times across "
        << jobs.size() << " steady-state shots";
    EXPECT_EQ(core.totalDecodes(), 3 * jobs.size());

    client.close();
    server.stop();
}

TEST(AllocCounter, FleetClientSendShotIsAllocationFree)
{
    // FleetClient::sendShot encodes each frame straight into its send
    // buffer; once that buffer has grown, staging shots allocates
    // nothing. The server side only queues (no workers run).
    ExperimentConfig ecfg;
    ecfg.distance = 5;
    ecfg.physicalErrorRate = 1e-3;
    auto ctx = std::make_shared<const ExperimentContext>(ecfg);
    FleetConfig fc;
    fc.shards = 1;
    fc.ringCapacity = 1024;
    DecodeFleet fleet(fc, ctx, registryFactory("astrea"));
    net::FleetServer server(fleet);
    fleet.setVerdictSink(
        [&server](const FleetVerdict &v) { server.deliver(v); });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0, &error)) << error;
    net::FleetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    Rng rng(61);
    BitVec dets, obs;
    std::vector<std::vector<uint32_t>> shots;
    size_t guard = 0;
    while (shots.size() < 128 && ++guard < 2000000) {
        ctx->sampler().sample(rng, dets, obs);
        if (dets.popcount() <= 10)
            shots.push_back(dets.onesIndices());
    }
    ASSERT_EQ(shots.size(), 128u);

    // Each pass stays far below the client's 32 KiB flush threshold,
    // so the measured loop makes no syscall either.
    uint32_t seq = 0;
    auto stage = [&] {
        for (const auto &s : shots)
            ASSERT_TRUE(client.sendShot(seq % 16, seq++, 7, s));
    };
    auto wait_queued = [&](size_t n) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (fleet.queueDepth(0) < n &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(fleet.queueDepth(0), n);
    };

    stage();
    ASSERT_TRUE(client.flush());
    wait_queued(shots.size());
    const uint64_t before = allocCount();
    stage();
    const uint64_t allocs = allocCount() - before;
    ASSERT_TRUE(client.flush());
    wait_queued(2 * shots.size());
    EXPECT_EQ(allocs, 0u)
        << "sendShot allocated " << allocs << " times across "
        << shots.size() << " steady-state shots";
    EXPECT_EQ(fleet.shedTotal(), 0u);

    client.close();
    server.stop();
}

} // namespace
} // namespace astrea

/**
 * @file
 * serve_paced and serve_flood: one loopback connection feeding the
 * decode fleet composed the way DecodeService::start composes it
 * (ServeConfig defaults, DecodeServiceCore::accountFleetShot as the
 * account hook, FleetServer::deliver as the verdict sink), minus the
 * HTTP endpoints and synthetic workers, which are not on this path.
 *
 * Syndromes are sampled from the seed and reference-decoded with
 * decodeInto before the server starts; the program sees only frames.
 * Shot g goes out as stream g % 64, seq g / 64 and carries pool entry
 * g % pool size, so a verdict identifies its shot and its expected
 * answer without per-shot state beyond a fixed ring.
 */

#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "harness/decode_service.hh"
#include "layers.hh"
#include "ledger.hh"
#include "net/fleet_client.hh"
#include "net/fleet_server.hh"
#include "probes.hh"
#include "report.hh"
#include "schedule.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

using namespace astrea;

constexpr uint32_t kStreams = 64;
/** Offered load of serve_paced, well under saturation. */
constexpr double kPacedRate = 45000.0;
/** serve_flood's in-flight cap; the shed ramp starts at 512 per shard. */
constexpr uint64_t kFloodWindow = 512;
/** Shot priorities: paced shots are a control system's own rounds and
 *  go at the top priority, so only a full shard ring sheds them;
 *  flood shots go at 0, and its window keeps every ring under the
 *  shed ramp. */
constexpr uint8_t kPacedPriority = 7;
constexpr uint8_t kFloodPriority = 0;
/** serve_flood stages this many shots per flush. */
constexpr uint64_t kFloodSendBatch = 64;
constexpr size_t kPoolShots = 1u << 16;
/** Verdict ledger ring; must exceed any plausible in-flight count. */
constexpr uint64_t kLedgerSlots = 1u << 18;
/** setup_s comes from kSetupBuilds builds before the measured phase
 *  and kSetupBuilds after it, with a pause between builds, each timed
 *  between two calibration passes (see Calibration). */
constexpr int kSetupBuilds = 28;
constexpr auto kSetupPause = std::chrono::milliseconds(20);
/** One calibration pass on the reference host at its faster speed
 *  (see README): setup_s is a build's time in calibration passes,
 *  times this. */
constexpr double kCalibrationNominalS = 0.0025;
constexpr double kWarmupS = 1.0;
constexpr double kDrainTimeoutS = 10.0;
/** Measured shots per traced-run phase (bounds the span array). */
constexpr uint64_t kTracedShots = 250000;
constexpr size_t kSpanCapacity = 1500000;
constexpr const char *kSpanDir = ".bench_build/spans";
constexpr uint64_t kGoodBucketNs = 10000000;  ///< 10 ms.
constexpr size_t kGoodBuckets = 8192;
/** Latency recorded for a shed or errored shot (1000 s). */
constexpr uint64_t kRefusedLatencyNs = 1000000000000ull;

ServeConfig
serveConfig()
{
    ServeConfig c;  // d=5, p=1e-3, astrea, FleetConfig defaults.
    c.workers = 0;  // Ingest only: no synthetic workload.
    c.fleetEnabled = true;
    return c;
}

ExperimentConfig
experimentConfig(const ServeConfig &c)
{
    ExperimentConfig ec;
    ec.distance = c.distance;
    ec.rounds = c.rounds;
    ec.physicalErrorRate = c.physicalErrorRate;
    return ec;
}

DecoderFactory
serveFactory(const ServeConfig &c)
{
    DecoderFactory f;
    const std::string err = resolveServeDecoder(c, &f);
    if (!err.empty())
        fatal("perfbench: " + err);
    return f;
}

/**
 * A fixed CPU workload of a few ms, timed next to each setup build:
 * the host's CPU speed changes by up to half in phases of 50 ms to
 * minutes, and the ratio of a build to the passes around it changes
 * much less. The buffers are allocated once, so the passes leave peak
 * RSS alone.
 */
struct Calibration
{
    std::vector<uint64_t> values = std::vector<uint64_t>(40000);
    std::vector<uint64_t> table = std::vector<uint64_t>(1u << 16);
    uint64_t sink = 0;

    /** One pass (xorshift fill, open-addressing inserts, sort), s. */
    double
    passS()
    {
        const uint64_t t0 = nowNs();
        uint64_t x = 88172645463325252ull;
        for (uint64_t &e : values) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = x;
        }
        std::fill(table.begin(), table.end(), 0);
        const size_t mask = table.size() - 1;
        for (size_t i = 0; i < values.size() / 2; i++) {
            const uint64_t key = values[i] | 1;  // 0 marks a free slot.
            size_t slot = key & mask;
            while (table[slot] != 0 && table[slot] != key)
                slot = (slot + 1) & mask;
            table[slot] = key;
        }
        std::sort(values.begin(), values.end());
        sink += values[values.size() / 2];
        return static_cast<double>(nowNs() - t0) * 1e-9;
    }
};

uint64_t
verdictHash(uint64_t g, uint64_t obs, bool gave_up)
{
    return mix64(g ^ mix64(obs ^ (gave_up ? 1ull << 63 : 0)));
}

/** Pre-sampled syndromes and their reference answers. */
struct Pool
{
    SyndromeBatch shots;
    std::vector<uint64_t> refObs;
    std::vector<uint8_t> refGaveUp;
    SampleCost sample;
    uint32_t numDetectors = 0;
    uint64_t gaveUps = 0;
    uint64_t digest = 0;  ///< Sum of verdictHash over the pool.
};

Pool
buildPool(const ServeConfig &cfg, uint64_t seed)
{
    Pool p;
    ExperimentContext ctx(experimentConfig(cfg));
    p.numDetectors =
        static_cast<uint32_t>(ctx.circuit().numDetectors());
    Rng rng(seed);
    p.sample = sampleShots(ctx, rng, kPoolShots, &p.shots, nullptr);
    auto dec = serveFactory(cfg)(ctx);
    DecodeResult r;
    DecodeScratch scratch;
    p.refObs.resize(kPoolShots);
    p.refGaveUp.resize(kPoolShots);
    for (size_t i = 0; i < kPoolShots; i++) {
        dec->decodeInto(p.shots.at(i), r, scratch);
        p.refObs[i] = r.obsMask;
        p.refGaveUp[i] = r.gaveUp ? 1 : 0;
        p.gaveUps += r.gaveUp ? 1 : 0;
        p.digest += verdictHash(i, r.obsMask, r.gaveUp);
    }
    return p;
}

/** One composed serving stack (see file comment). */
struct Stack
{
    std::unique_ptr<DecodeServiceCore> core;
    std::shared_ptr<const ExperimentContext> ctx;
    std::unique_ptr<DecodeFleet> ownFleet;
    DecodeFleet *fleet = nullptr;
    std::unique_ptr<net::FleetServer> server;
    double listenS = 0;

    ~Stack() { stop(); }

    void
    stop()
    {
        if (fleet != nullptr)
            fleet->stop();
        if (server)
            server->stop();
    }
};

/**
 * Untraced: DecodeServiceCore builds the fleet exactly as serve does.
 * Traced: the benchmark builds the same fleet itself so its decoder
 * factory, account hook and sink can be wrapped.
 */
std::unique_ptr<Stack>
buildStack(const ServeConfig &cfg, Probes *probes)
{
    auto st = std::make_unique<Stack>();
    if (probes == nullptr) {
        st->core = std::make_unique<DecodeServiceCore>(cfg);
        st->fleet = st->core->fleet();
        st->server = std::make_unique<net::FleetServer>(*st->fleet);
        st->fleet->setVerdictSink(
            [srv = st->server.get()](const FleetVerdict &v) {
                srv->deliver(v);
            });
    } else {
        ServeConfig core_cfg = cfg;
        core_cfg.fleetEnabled = false;
        st->core = std::make_unique<DecodeServiceCore>(core_cfg);
        st->ctx = std::make_shared<const ExperimentContext>(
            experimentConfig(cfg));
        st->ownFleet = std::make_unique<DecodeFleet>(
            cfg.fleet, st->ctx, timedFactory(serveFactory(cfg), *probes));
        st->fleet = st->ownFleet.get();
        st->fleet->setAccountHook(wrapAccountHook(*st->core, *probes));
        st->server = std::make_unique<net::FleetServer>(*st->fleet);
        st->fleet->setVerdictSink(
            wrapVerdictSink(*st->server, *st->fleet, *probes));
    }
    std::string err;
    const uint64_t t0 = nowNs();
    if (!st->server->start(cfg.fleetBind, cfg.fleetPort, &err))
        fatal("perfbench: fleet server: " + err);
    st->listenS = static_cast<double>(nowNs() - t0) * 1e-9;
    st->fleet->start();
    return st;
}

/** Everything one phase (one connection, one stack) measured. */
struct Phase
{
    uint64_t sent = 0;
    uint64_t accepted = 0, duplicates = 0, unexpected = 0;
    uint64_t shed = 0, errored = 0, gaveUps = 0, mismatches = 0;
    uint64_t lost = 0;
    uint64_t digest = 0;  ///< verdictHash sum over answered g < pool.

    LogHistogram latency;  ///< Due/send time -> verdict, measured shots.
    LogHistogram lag;  ///< Paced sender lateness.

    uint64_t mStartNs = 0, mEndNs = 0;
    uint64_t gStart = 0, gEnd = 0;  ///< Measured shot range.
    double goodPerS = 0;
    double senderBusy = 0, receiverBusy = 0;
    double cpuCores = 0, sysFrac = 0, stealFrac = 0;
    uint64_t fleetBatches = 0, fleetDecoded = 0, fleetShed = 0,
             fleetRingFull = 0;

    double p50Us() const { return latency.percentile(0.5) / 1e3; }
    double p99Us() const { return latency.percentile(0.99) / 1e3; }
    /** Shots without a decoded answer (fail_frac's numerator). */
    uint64_t failures() const { return shed + errored + gaveUps + lost; }
};

void
sleepUntil(uint64_t ns)
{
    timespec ts;
    ts.tv_sec = static_cast<time_t>(ns / 1000000000ull);
    ts.tv_nsec = static_cast<long>(ns % 1000000000ull);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

/**
 * Drive one phase: warm up for kWarmupS, measure for `seconds` (or
 * until `shot_cap` measured shots were sent), drain, stop the stack.
 */
Phase
runPhase(Stack &st, const Pool &pool, bool paced, double seconds,
         uint64_t shot_cap, Probes *probes)
{
    Phase ph;
    net::FleetClient client;
    std::string err;
    if (!client.connect("127.0.0.1", st.server->port(), &err))
        fatal("perfbench: connect: " + err);

    Ledger ledger(kStreams, kLedgerSlots);
    std::atomic<uint64_t> received{0};
    std::atomic<bool> senderWaiting{false};
    std::mutex waitMu;
    std::condition_variable waitCv;
    std::vector<uint64_t> good(kGoodBuckets, 0);

    const uint64_t t0 = nowNs() + 1000000;  // First shot due in 1 ms.
    ph.mStartNs = t0 + static_cast<uint64_t>(kWarmupS * 1e9);
    const uint64_t t_end =
        ph.mStartNs + static_cast<uint64_t>(seconds * 1e9);
    const OpenLoopSchedule sched(kPacedRate, t0);
    const bool traced = probes != nullptr;
    auto armed = [&] {
        return traced && probes->armed.load(std::memory_order_relaxed);
    };

    auto recordLatency = [&](uint64_t t, uint64_t lat) {
        if (t < ph.mStartNs)
            return;
        ph.latency.record(lat);
    };

    std::thread receiver([&] {
        const uint64_t cpu0 = threadCpuNs();
        const uint64_t wall0 = nowNs();
        net::FleetClientVerdict v;
        while (client.readVerdict(v)) {
            const uint64_t t = nowNs();
            if (armed()) {
                const uint32_t id = probes->spans.open(
                    SpanName::ClientRead, 0, t, v.streamId, v.seq);
                probes->spans.close(id, t);
            }
            uint64_t g = 0;
            const Ledger::Kind kind = ledger.accept(v.streamId, v.seq, g);
            received.fetch_add(1);
            if (senderWaiting.load()) {
                std::lock_guard<std::mutex> lock(waitMu);
                waitCv.notify_one();
            }
            if (kind != Ledger::Kind::Accepted)
                continue;
            if (v.shed || v.error) {
                // A refused shot misses any latency limit.
                (v.shed ? ph.shed : ph.errored)++;
                recordLatency(t, kRefusedLatencyNs);
                continue;
            }
            const size_t pi = g % kPoolShots;
            if (v.obsMask != pool.refObs[pi] ||
                v.gaveUp != (pool.refGaveUp[pi] != 0)) {
                ph.mismatches++;
                continue;
            }
            ph.gaveUps += v.gaveUp ? 1 : 0;
            if (g < kPoolShots)
                ph.digest += verdictHash(g, v.obsMask, v.gaveUp);
            const uint64_t ref = paced ? sched.dueNs(g) : ledger.sendNs(g);
            if (ref >= ph.mStartNs)
                recordLatency(t, t > ref ? t - ref : 0);
            if (t >= ph.mStartNs) {
                const uint64_t b = (t - ph.mStartNs) / kGoodBucketNs;
                if (b < kGoodBuckets)
                    good[b]++;
            }
        }
        const uint64_t wall = nowNs() - wall0;
        ph.receiverBusy = static_cast<double>(threadCpuNs() - cpu0) /
                          static_cast<double>(std::max<uint64_t>(1, wall));
    });

    const uint8_t priority = paced ? kPacedPriority : kFloodPriority;
    auto stage = [&](uint64_t g, uint64_t now) {
        const uint32_t stream = static_cast<uint32_t>(g % kStreams);
        const uint32_t seq = static_cast<uint32_t>(g / kStreams);
        ledger.stage(g, now);
        const auto defects = pool.shots.at(g % kPoolShots);
        if (armed()) {
            const uint32_t id = probes->spans.open(
                SpanName::ClientSend, 0, nowNs(), stream, seq);
            client.sendShot(stream, seq, priority, defects);
            probes->spans.close(id, nowNs());
        } else {
            client.sendShot(stream, seq, priority, defects);
        }
    };
    auto flush = [&] {
        if (armed()) {
            const uint32_t id =
                probes->spans.open(SpanName::ClientFlush, 0, nowNs());
            client.flush();
            probes->spans.close(id, nowNs());
        } else {
            client.flush();
        }
    };

    uint64_t sender_stop = 0;
    std::thread sender([&] {
        const uint64_t cpu0 = threadCpuNs();
        const uint64_t wall0 = nowNs();
        uint64_t g = 0;
        bool measuring = false;
        for (;;) {
            const uint64_t now = nowNs();
            if (!measuring && now >= ph.mStartNs) {
                measuring = true;
                ph.gStart = g;
            }
            if (now >= t_end || (measuring && g - ph.gStart >= shot_cap))
                break;
            if (paced) {
                const uint64_t due = sched.dueCount(now);
                for (; g < due; g++) {
                    if (sched.dueNs(g) >= ph.mStartNs)
                        ph.lag.record(sched.latenessNs(g, now));
                    stage(g, now);
                }
                flush();
                sleepUntil(sched.dueNs(g));
                continue;
            }
            // Closed loop: wait for window room, then send one batch.
            auto room = [&] {
                return g + kFloodSendBatch <= received.load() + kFloodWindow;
            };
            if (!room()) {
                // The receiver notifies under waitMu when it sees
                // senderWaiting; the timeout re-checks the end time.
                std::unique_lock<std::mutex> lock(waitMu);
                senderWaiting.store(true);
                waitCv.wait_for(lock, std::chrono::milliseconds(20), room);
                senderWaiting.store(false);
                continue;
            }
            for (uint64_t i = 0; i < kFloodSendBatch; i++, g++)
                stage(g, now);
            flush();
        }
        sender_stop = nowNs();
        ph.gEnd = g;
        ph.sent = g;
        const uint64_t wall = sender_stop - wall0;
        ph.senderBusy = static_cast<double>(threadCpuNs() - cpu0) /
                        static_cast<double>(std::max<uint64_t>(1, wall));
    });

    // Process CPU over the measured window; arm the probes with it.
    sleepUntil(ph.mStartNs);
    const ProcessCpu cpu0 = processCpu();
    const HostCpu host0 = hostCpu();
    if (traced)
        probes->armed.store(true);
    sender.join();
    const ProcessCpu cpu1 = processCpu();
    const HostCpu host1 = hostCpu();
    ph.mEndNs = std::max(sender_stop, ph.mStartNs + 1);
    if (traced)
        probes->armed.store(false);

    const uint64_t drain_end =
        nowNs() + static_cast<uint64_t>(kDrainTimeoutS * 1e9);
    while (received.load() < ph.sent && nowNs() < drain_end)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    ph.fleetBatches = st.fleet->batchesTotal();
    ph.fleetDecoded = st.fleet->decodedTotal();
    ph.fleetShed = st.fleet->shedTotal();
    ph.fleetRingFull = st.fleet->ringFullTotal();
    st.stop();  // Server closes the connection; the receiver sees EOF.
    receiver.join();
    client.close();

    ph.accepted = ledger.accepted;
    ph.duplicates = ledger.duplicates;
    ph.unexpected = ledger.unexpected;
    ph.lost = ph.sent > ph.accepted ? ph.sent - ph.accepted : 0;

    const double measured_s =
        static_cast<double>(ph.mEndNs - ph.mStartNs) * 1e-9;
    const size_t full_buckets = std::min<size_t>(
        kGoodBuckets, (ph.mEndNs - ph.mStartNs) / kGoodBucketNs);
    uint64_t good_sum = 0;
    for (size_t b = 0; b < full_buckets; b++)
        good_sum += good[b];
    ph.goodPerS = full_buckets == 0
                      ? 0.0
                      : static_cast<double>(good_sum) /
                            (static_cast<double>(full_buckets) *
                             kGoodBucketNs * 1e-9);
    const double user = static_cast<double>(cpu1.userNs - cpu0.userNs);
    const double sys = static_cast<double>(cpu1.sysNs - cpu0.sysNs);
    ph.cpuCores = (user + sys) * 1e-9 / std::max(1e-9, measured_s);
    ph.sysFrac = user + sys > 0 ? sys / (user + sys) : 0.0;
    ph.stealFrac = stealFrac(host0, host1);
    return ph;
}

void
checkPhase(RunResult &r, const Phase &ph, const Pool &pool,
           const char *label)
{
    r.attempted += ph.sent;
    r.failed += ph.shed + ph.errored + ph.lost;
    r.note("%s: sent %llu, verdicts accepted %llu, lost %llu, duplicate "
           "%llu, unexpected %llu, mismatched %llu, shed %llu, errored "
           "%llu, gave up %llu",
           label, (unsigned long long)ph.sent,
           (unsigned long long)ph.accepted, (unsigned long long)ph.lost,
           (unsigned long long)ph.duplicates,
           (unsigned long long)ph.unexpected,
           (unsigned long long)ph.mismatches, (unsigned long long)ph.shed,
           (unsigned long long)ph.errored, (unsigned long long)ph.gaveUps);
    r.note("%s: output digest %016llx (reference %016llx over the first "
           "%zu shots)",
           label, (unsigned long long)ph.digest,
           (unsigned long long)pool.digest, kPoolShots);
    if (ph.mismatches != 0)
        r.fail(std::string(label) + ": verdicts differ from reference "
                                    "decodeInto");
    if (ph.duplicates != 0)
        r.fail(std::string(label) + ": duplicate verdicts");
    if (ph.unexpected != 0)
        r.fail(std::string(label) + ": unexpected verdicts");
    if (ph.lost != 0)
        r.fail(std::string(label) + ": shots without a verdict");
    if (ph.sent >= kPoolShots && ph.shed == 0 && ph.errored == 0 &&
        ph.lost == 0 && ph.mismatches == 0 && ph.digest != pool.digest)
        r.fail(std::string(label) + ": output digest differs from "
                                    "reference");
}

void
notePhase(RunResult &r, const Phase &ph, const char *label)
{
    r.note("%s: measured %.3f s, %.0f shots/s; latency over %llu samples: "
           "p50 %.1f us, p99 %.1f us, max %.1f us",
           label, static_cast<double>(ph.mEndNs - ph.mStartNs) * 1e-9,
           ph.goodPerS, (unsigned long long)ph.latency.count(), ph.p50Us(),
           ph.p99Us(), static_cast<double>(ph.latency.max()) / 1e3);
    r.note("%s: generator lag p99 %.1f us, sender busy %.3f, receiver "
           "busy %.3f; process %.2f cores, sys share %.3f; host steal "
           "%.3f; fleet %.2f shots/batch",
           label, ph.lag.percentile(0.99) / 1e3, ph.senderBusy,
           ph.receiverBusy, ph.cpuCores, ph.sysFrac, ph.stealFrac,
           ph.fleetBatches ? static_cast<double>(ph.fleetDecoded) /
                                 static_cast<double>(ph.fleetBatches)
                           : 0.0);
}

/** Per-shot join of the traced phase's spans (see README). */
struct ShotJoin
{
    LogHistogram queueWait;
    LogHistogram deliver;
    std::vector<double> residualUs;
    double sendNs = 0;       ///< sendShot + flush time.
    double deliverNs = 0;    ///< Sum of deliver durations.
    double decodeNs = 0;     ///< Sum of decodeBatch durations.
    double decodeShots = 0;
    double accountNs = 0;
    uint64_t accountCalls = 0;
    uint64_t batches = 0;
    double batchShots = 0;
};

ShotJoin
joinSpans(const Probes &probes, const Phase &ph)
{
    ShotJoin j;
    const Span *spans = probes.spans.data();
    const size_t n = probes.spans.size();
    const uint64_t g0 = ph.gStart;
    const size_t shots = static_cast<size_t>(ph.gEnd - ph.gStart);
    std::vector<uint64_t> flush_end(shots, 0), read_ns(shots, 0),
        wait_ns(shots, 0), in_batch_ns(shots, 0);
    std::vector<uint8_t> have(shots, 0);

    auto index = [&](const Span &s, size_t &out) {
        if (s.stream == kNoShot)
            return false;
        const uint64_t g =
            static_cast<uint64_t>(s.seq) * kStreams + s.stream;
        if (g < g0 || g - g0 >= shots)
            return false;
        out = static_cast<size_t>(g - g0);
        return true;
    };

    std::vector<size_t> staged;
    for (size_t i = 0; i < n; i++) {
        const Span &s = spans[i];
        const double dur = static_cast<double>(s.endNs - s.startNs);
        size_t k = 0;
        switch (static_cast<SpanName>(s.name)) {
        case SpanName::ClientSend:
            j.sendNs += dur;
            if (index(s, k))
                staged.push_back(k);
            break;
        case SpanName::ClientFlush:
            j.sendNs += dur;
            for (size_t x : staged)
                flush_end[x] = s.endNs;
            staged.clear();
            break;
        case SpanName::ClientRead:
            if (index(s, k)) {
                read_ns[k] = s.startNs;
                have[k] |= 1;
            }
            break;
        case SpanName::NetDeliver:
            j.deliverNs += dur;
            j.deliver.record(s.endNs - s.startNs);
            if (index(s, k) && s.parent != 0) {
                const Span &b = spans[s.parent - 1];
                wait_ns[k] = s.arg;
                in_batch_ns[k] = s.endNs - b.startNs;
                j.queueWait.record(s.arg);
                have[k] |= 2;
            }
            break;
        case SpanName::AstreaDecode:
            j.decodeNs += dur;
            j.decodeShots += s.arg;
            break;
        case SpanName::HarnessAccount:
            j.accountNs += dur;
            j.accountCalls++;
            break;
        case SpanName::FleetBatch:
            j.batches++;
            j.batchShots += s.arg;
            break;
        case SpanName::Count:
            break;
        }
    }
    for (size_t k = 0; k < shots; k++) {
        if (have[k] != 3 || flush_end[k] == 0)
            continue;
        const double total = static_cast<double>(read_ns[k]) -
                             static_cast<double>(flush_end[k]);
        j.residualUs.push_back(
            (total - static_cast<double>(wait_ns[k]) -
             static_cast<double>(in_batch_ns[k])) /
            1e3);
    }
    return j;
}

} // namespace

RunResult
runServe(const Options &opt)
{
    RunResult r;
    const bool paced = opt.workload == "serve_paced";
    const ServeConfig cfg = serveConfig();
    const Pool pool = buildPool(cfg, opt.seed);
    r.note("pool: %zu shots from seed %llu, mean HW %.3f, %llu reference "
           "give-ups, reference digest %016llx",
           kPoolShots, (unsigned long long)opt.seed,
           pool.sample.hwSum / kPoolShots,
           (unsigned long long)pool.gaveUps,
           (unsigned long long)pool.digest);

    if (!opt.trace) {
        // Set up several times (see kSetupBuilds); serve on the last
        // build before the measured phase.
        std::vector<double> builds, passes, scaled;
        Calibration cal;
        auto build = [&] {
            const double pass0 = cal.passS();
            const uint64_t t0 = nowNs();
            auto built = buildStack(cfg, nullptr);
            const double s = static_cast<double>(nowNs() - t0) * 1e-9;
            const double pass1 = cal.passS();
            builds.push_back(s);
            passes.push_back(pass0);
            passes.push_back(pass1);
            scaled.push_back(s / (pass0 + pass1) * 2 *
                             kCalibrationNominalS);
            return built;
        };
        std::unique_ptr<Stack> st;
        for (int i = 0; i < kSetupBuilds; i++) {
            if (st) {
                st.reset();
                std::this_thread::sleep_for(kSetupPause);
            }
            st = build();
        }
        const Phase ph = runPhase(*st, pool, paced, opt.seconds,
                                  ~0ull, nullptr);
        st.reset();
        for (int i = 0; i < kSetupBuilds; i++) {
            std::this_thread::sleep_for(kSetupPause);
            build();
        }
        checkPhase(r, ph, pool, "run");
        notePhase(r, ph, "run");
        r.note("setup: %zu builds, quartiles %.2f / %.2f / %.2f ms; "
               "calibration pass quartiles %.2f / %.2f / %.2f ms; "
               "setup_s = median build / pass ratio %.3f x %.1f ms",
               builds.size(), percentile(builds, 0.25) * 1e3,
               median(builds) * 1e3, percentile(builds, 0.75) * 1e3,
               percentile(passes, 0.25) * 1e3, median(passes) * 1e3,
               percentile(passes, 0.75) * 1e3,
               median(scaled) / kCalibrationNominalS,
               kCalibrationNominalS * 1e3);
        r.add("setup_s", median(scaled), "s");
        r.add("shots_per_s", ph.goodPerS, "shots/s");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        return r;
    }

    // Traced run: phase A untraced (as above), phase B traced, with the
    // same measured shot budget; their gap is the tracing overhead.
    const double phase_s = std::max(1.0, opt.seconds / 2);
    Phase a;
    {
        auto st = buildStack(cfg, nullptr);
        a = runPhase(*st, pool, paced, phase_s, kTracedShots, nullptr);
    }
    checkPhase(r, a, pool, "untraced");
    notePhase(r, a, "untraced");

    Probes probes(kSpanCapacity);
    probes.fleetBatches = true;
    Phase b;
    double listen_s = 0;
    {
        auto st = buildStack(cfg, &probes);
        listen_s = st->listenS;
        b = runPhase(*st, pool, paced, phase_s, kTracedShots, &probes);
    }  // Decoders fold their stats into probes.counters here.
    checkPhase(r, b, pool, "traced");
    notePhase(r, b, "traced");

    const ShotJoin j = joinSpans(probes, b);
    const double measured_s =
        static_cast<double>(b.mEndNs - b.mStartNs) * 1e-9;
    const double shards = cfg.fleet.shards;
    const double sent_b = static_cast<double>(b.gEnd - b.gStart);

    const SpanTotals tot =
        summarizeSpans(probes.spans.data(), probes.spans.size());
    for (size_t i = 0; i < kSpanNames; i++) {
        if (tot.calls[i] == 0)
            continue;
        r.note("layer %-18s calls %9llu  total %9.3f ms  self %9.3f ms  "
               "self/call %8.1f ns",
               spanNameText(static_cast<SpanName>(i)),
               (unsigned long long)tot.calls[i], tot.totalNs[i] / 1e6,
               tot.selfNs[i] / 1e6,
               tot.selfNs[i] / static_cast<double>(tot.calls[i]));
    }
    const double residual = median(j.residualUs);
    r.note("per shot (traced): verdict p50 %.1f us = generator lag + "
           "client send + queue wait p50 %.1f us + batch-to-deliver + "
           "unattributed residual p50 %.1f us (%zu shots joined, %llu "
           "spans dropped)",
           b.p50Us(), j.queueWait.percentile(0.5) / 1e3, residual,
           j.residualUs.size(), (unsigned long long)probes.spans.dropped());

    std::filesystem::create_directories(kSpanDir);
    const std::string dump =
        std::string(kSpanDir) + "/" + opt.workload + ".spans";
    if (probes.spans.dump(dump))
        r.note("spans written to %s", dump.c_str());

    uint64_t per_shard_max = 0, per_shard_sum = 0;
    for (unsigned s = 0; s < cfg.fleet.shards && s < Probes::kMaxShards;
         s++) {
        const uint64_t c = probes.deliveredPerShard[s].load();
        per_shard_max = std::max(per_shard_max, c);
        per_shard_sum += c;
    }
    const double skew =
        per_shard_sum == 0
            ? 0.0
            : static_cast<double>(per_shard_max) * shards /
                  static_cast<double>(per_shard_sum);

    const CodecCost codec = timeCodec(pool.shots, pool.numDetectors);
    if (!codec.roundTripOk)
        r.fail("syndrome codec round trip changed a pool shot");
    const DecoderCounters &dc = probes.counters;

    r.add("verdict_p50_us", a.p50Us(), "us");
    r.add("verdict_p99_us", a.p99Us(), "us");
    r.add("fleet.queue_wait_p50_us", j.queueWait.percentile(0.5) / 1e3, "us");
    r.add("fleet.queue_wait_p99_us", j.queueWait.percentile(0.99) / 1e3, "us");
    r.add("fleet.shots_per_batch",
          j.batches ? j.batchShots / static_cast<double>(j.batches) : 0.0,
          "shots");
    r.add("fleet.queue_depth_max",
          static_cast<double>(probes.queueDepthMax.load()), "shots");
    r.add("fleet.shard_skew", skew, "ratio");
    r.add("fleet.shed", static_cast<double>(b.fleetShed), "count");
    r.add("fleet.ring_full", static_cast<double>(b.fleetRingFull), "count");
    r.add("net.deliver_p50_ns", j.deliver.percentile(0.5), "ns");
    r.add("net.deliver_p99_ns", j.deliver.percentile(0.99), "ns");
    r.add("net.deliver_busy_frac", j.deliverNs / (measured_s * 1e9 * shards),
          "ratio");
    r.add("net.client_send_ns_per_shot",
          sent_b > 0 ? j.sendNs / sent_b : 0.0, "ns");
    r.add("net.wire_bytes_per_shot", codec.wireBytesPerShot, "bytes");
    r.add("net.residual_p50_us", residual, "us");
    r.add("harness.account_ns_per_shot",
          j.accountCalls ? j.accountNs / static_cast<double>(j.accountCalls)
                         : 0.0,
          "ns");
    r.add("compression.encode_ns_per_shot", codec.encodeNsPerShot, "ns");
    r.add("compression.decode_ns_per_shot", codec.decodeNsPerShot, "ns");
    r.add("compression.bytes_per_shot", codec.bytesPerShot, "bytes");
    r.add("astrea.decode_ns_per_shot",
          j.decodeShots > 0 ? j.decodeNs / j.decodeShots : 0.0, "ns");
    r.add("astrea.decode_busy_frac", j.decodeNs / (measured_s * 1e9 * shards),
          "ratio");
    r.add("astrea.hw6_invocations_per_shot",
          dc.astreaDecodes ? static_cast<double>(dc.astreaHw6) /
                                 static_cast<double>(dc.astreaDecodes)
                           : 0.0,
          "count");
    r.add("sim.sample_ns_per_shot",
          static_cast<double>(pool.sample.ns) / kPoolShots, "ns");
    r.add("sim.hw_mean", pool.sample.hwSum / kPoolShots, "defects");
    r.add("sim.hw_gt10_frac",
          static_cast<double>(pool.sample.hwGt10) / kPoolShots, "ratio");
    const SetupBreakdown sb = timeSetup(experimentConfig(cfg), cfg.decoder);
    r.add("setup.circuit_s", sb.circuitS, "s");
    r.add("setup.dem_s", sb.demS, "s");
    r.add("setup.graph_s", sb.graphS, "s");
    r.add("setup.gwt_s", sb.gwtS, "s");
    r.add("setup.sampler_s", sb.samplerS, "s");
    r.add("setup.decoder_s", sb.decoderS, "s");
    r.add("setup.listen_s", listen_s, "s");
    r.add("gen.lag_p99_us", paced ? a.lag.percentile(0.99) / 1e3 : 0.0, "us");
    r.add("gen.busy_frac", std::max(a.senderBusy, a.receiverBusy), "ratio");
    r.add("process.cpu_cores", a.cpuCores, "cores");
    r.add("process.sys_frac", a.sysFrac, "ratio");
    r.add("process.steal_frac", a.stealFrac, "ratio");
    r.add("trace.overhead_frac",
          paced ? b.p50Us() / std::max(1e-9, a.p50Us()) - 1.0
                : a.goodPerS / std::max(1e-9, b.goodPerS) - 1.0,
          "ratio");
    probeLerEngine(opt.seed, r);
    const uint64_t sent = a.sent + b.sent;
    r.add("fail_frac",
          sent ? static_cast<double>(a.failures() + b.failures()) /
                     static_cast<double>(sent)
               : 0.0,
          "ratio");
    return r;
}

} // namespace perfbench

/**
 * @file
 * Fleet saturation macro-bench: sharded batch-coalesced TCP ingest vs
 * a synchronous per-shot round trip.
 *
 * Sets up a real DecodeFleet + FleetServer on loopback, then drives it
 * with in-process FleetClients: M logical streams multiplexed over a
 * few connections, each stream sending K shots of pre-sampled d = 5
 * p = 1e-3 syndromes with a bounded in-flight window. Each (streams,
 * shards) case reports sustained shots/sec and the client-observed
 * ingest-to-verdict latency distribution (send-staged to verdict-read,
 * so coalescing delay is included — this is what a control system
 * would see).
 *
 * The baseline is the same server shape a naive service would run:
 * one stream, one shard, maxBatch 1, and one shot in flight at a time
 * (send, flush, wait for the verdict). fleet_vs_single is the
 * headline: how much the sharded, coalesced, windowed path beats the
 * synchronous per-shot path on the same machine. shots/sec and the
 * ratio are gated as floors against
 * bench/baselines/fleet_saturation.json by tools/bench_compare.py.
 *
 * Usage: bench_fleet_saturation [--json-out=report.json]
 *            [--cases=64x1,256x2,1024x4] [--shots-per-stream=N]
 *            [--baseline-shots=N] [--clients=N] [--window=N]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "decoders/registry.hh"
#include "harness/fleet.hh"
#include "harness/memory_experiment.hh"
#include "net/fleet_client.hh"
#include "net/fleet_server.hh"

using namespace astrea;

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct CaseSpec
{
    uint32_t streams = 0;
    unsigned shards = 0;
};

struct CaseResult
{
    uint64_t sent = 0;
    uint64_t decoded = 0;
    uint64_t shed = 0;
    uint64_t gaveUp = 0;
    double elapsedSec = 0.0;
    double shotsPerSec = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
};

double
percentile(std::vector<uint64_t> &v, double q)
{
    if (v.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return static_cast<double>(v[idx]);
}

/** Pre-sampled defect lists every client cycles through. */
std::vector<std::vector<uint32_t>>
sampleSyndromes(const ExperimentContext &ctx, size_t count)
{
    Rng rng(2026);
    BitVec dets, obs;
    std::vector<std::vector<uint32_t>> pool;
    pool.reserve(count);
    size_t guard = 0;
    while (pool.size() < count && ++guard < 10000000) {
        ctx.sampler().sample(rng, dets, obs);
        if (dets.popcount() <= 10)  // Stay in Astrea's range.
            pool.push_back(dets.onesIndices());
    }
    ASTREA_CHECK(pool.size() == count, "syndrome sampling starved");
    return pool;
}

/**
 * One client connection: drives `streams` logical streams (ids
 * [first, first+streams)) for `shots` shots each with a bounded
 * in-flight window, recording per-shot send -> verdict latency.
 */
struct ClientStats
{
    uint64_t decoded = 0;
    uint64_t shed = 0;
    uint64_t gaveUp = 0;
    std::vector<uint64_t> latencies;
    bool ok = true;
};

void
runClient(uint16_t port, uint32_t first_stream, uint32_t streams,
          uint32_t shots, size_t window, uint8_t priority,
          const std::vector<std::vector<uint32_t>> &pool,
          ClientStats &stats)
{
    net::FleetClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, &error)) {
        std::fprintf(stderr, "client: %s\n", error.c_str());
        stats.ok = false;
        return;
    }

    const uint64_t total = uint64_t{streams} * shots;
    std::vector<uint64_t> send_ns(total, 0);
    stats.latencies.reserve(total);

    std::atomic<uint64_t> received{0};
    ClientStats *st = &stats;
    std::thread reader([&client, &send_ns, &received, st, total,
                        first_stream, shots] {
        net::FleetClientVerdict v;
        while (received.load(std::memory_order_relaxed) < total &&
               client.readVerdict(v)) {
            const uint64_t idx =
                uint64_t{v.streamId - first_stream} * shots + v.seq;
            if (v.shed) {
                st->shed++;
            } else if (v.error) {
                st->shed++;
            } else {
                st->decoded++;
                if (v.gaveUp)
                    st->gaveUp++;
                st->latencies.push_back(nowNs() - send_ns[idx]);
            }
            received.fetch_add(1, std::memory_order_relaxed);
        }
    });

    uint64_t sent = 0;
    size_t pool_pos = first_stream % pool.size();
    for (uint32_t q = 0; q < shots && stats.ok; q++) {
        for (uint32_t s = 0; s < streams; s++) {
            while (sent - received.load(std::memory_order_relaxed) >=
                   window) {
                // Window full: push staged frames so verdicts can
                // come back, then wait for the reader to drain.
                if (!client.flush()) {
                    stats.ok = false;
                    break;
                }
                std::this_thread::yield();
            }
            if (!stats.ok)
                break;
            const auto &defects = pool[pool_pos];
            pool_pos = (pool_pos + 1) % pool.size();
            const uint64_t idx = uint64_t{s} * shots + q;
            send_ns[idx] = nowNs();
            if (!client.sendShot(first_stream + s, q, priority,
                                 defects)) {
                stats.ok = false;
                break;
            }
            sent++;
        }
        if (stats.ok && !client.flush())
            stats.ok = false;
    }
    if (stats.ok)
        stats.ok = client.flush();

    // Even on a send failure the reader stops at EOF.
    reader.join();
    client.close();
    if (received.load() != total)
        stats.ok = false;
}

CaseResult
runCase(const CaseSpec &spec,
        std::shared_ptr<const ExperimentContext> ctx,
        const std::vector<std::vector<uint32_t>> &pool,
        uint32_t shots_per_stream, unsigned num_clients,
        size_t window)
{
    FleetConfig fc;
    fc.shards = spec.shards;
    fc.ringCapacity = 8192;
    fc.maxBatch = 64;
    DecodeFleet fleet(fc, ctx, registryFactory("astrea"));
    net::FleetServer server(fleet);
    fleet.setVerdictSink(
        [&server](const FleetVerdict &v) { server.deliver(v); });
    std::string error;
    ASTREA_CHECK(server.start("127.0.0.1", 0, &error),
                 "fleet server start failed");
    fleet.start();

    num_clients = std::max(1u, std::min(num_clients, spec.streams));
    const uint32_t per_client = spec.streams / num_clients;
    std::vector<ClientStats> stats(num_clients);
    std::vector<std::thread> clients;

    const uint64_t t0 = nowNs();
    for (unsigned c = 0; c < num_clients; c++) {
        const uint32_t first = c * per_client;
        const uint32_t count = c + 1 == num_clients
                                   ? spec.streams - first
                                   : per_client;
        clients.emplace_back([&, first, count, c] {
            runClient(server.port(), first, count, shots_per_stream,
                      window, fc.maxPriority, pool, stats[c]);
        });
    }
    for (auto &t : clients)
        t.join();
    const uint64_t t1 = nowNs();

    fleet.stop();
    server.stop();

    CaseResult r;
    std::vector<uint64_t> all_lat;
    for (const auto &s : stats) {
        ASTREA_CHECK(s.ok, "fleet bench client failed");
        r.decoded += s.decoded;
        r.shed += s.shed;
        r.gaveUp += s.gaveUp;
        all_lat.insert(all_lat.end(), s.latencies.begin(),
                       s.latencies.end());
    }
    r.sent = uint64_t{spec.streams} * shots_per_stream;
    r.elapsedSec = static_cast<double>(t1 - t0) / 1e9;
    r.shotsPerSec = r.elapsedSec > 0.0
                        ? static_cast<double>(r.decoded) / r.elapsedSec
                        : 0.0;
    r.p50Ns = percentile(all_lat, 0.50);
    r.p99Ns = percentile(all_lat, 0.99);
    return r;
}

/** Synchronous per-shot baseline: one stream, one shot in flight. */
double
runSingleBaseline(std::shared_ptr<const ExperimentContext> ctx,
                  const std::vector<std::vector<uint32_t>> &pool,
                  uint32_t shots)
{
    FleetConfig fc;
    fc.shards = 1;
    fc.maxBatch = 1;
    DecodeFleet fleet(fc, ctx, registryFactory("astrea"));
    net::FleetServer server(fleet);
    fleet.setVerdictSink(
        [&server](const FleetVerdict &v) { server.deliver(v); });
    std::string error;
    ASTREA_CHECK(server.start("127.0.0.1", 0, &error),
                 "baseline server start failed");
    fleet.start();

    net::FleetClient client;
    ASTREA_CHECK(client.connect("127.0.0.1", server.port(), &error),
                 "baseline connect failed");

    net::FleetClientVerdict v;
    // Warm-up round trips settle buffers and the decoder.
    for (uint32_t q = 0; q < 64; q++) {
        client.sendShot(0, q, fc.maxPriority, pool[q % pool.size()]);
        client.flush();
        client.readVerdict(v);
    }
    const uint64_t t0 = nowNs();
    for (uint32_t q = 0; q < shots; q++) {
        client.sendShot(0, q, fc.maxPriority, pool[q % pool.size()]);
        client.flush();
        ASTREA_CHECK(client.readVerdict(v), "baseline verdict lost");
    }
    const uint64_t t1 = nowNs();

    client.close();
    fleet.stop();
    server.stop();
    return static_cast<double>(shots) /
           (static_cast<double>(t1 - t0) / 1e9);
}

std::vector<CaseSpec>
parseCases(const std::string &spec)
{
    std::vector<CaseSpec> cases;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t next = spec.find(',', pos);
        if (next == std::string::npos)
            next = spec.size();
        const std::string item = spec.substr(pos, next - pos);
        const size_t x = item.find('x');
        ASTREA_CHECK(x != std::string::npos,
                     "bad --cases entry (want STREAMSxSHARDS)");
        CaseSpec c;
        c.streams =
            static_cast<uint32_t>(std::stoul(item.substr(0, x)));
        c.shards =
            static_cast<unsigned>(std::stoul(item.substr(x + 1)));
        cases.push_back(c);
        pos = next + 1;
    }
    return cases;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const std::string json_out = initBenchReport(opts);

    const std::string cases_spec =
        opts.getString("cases", "64x1,256x2,1024x4");
    const uint32_t shots_per_stream = static_cast<uint32_t>(
        std::max<uint64_t>(1, opts.getUint("shots-per-stream", 48)));
    const uint32_t baseline_shots = static_cast<uint32_t>(
        std::max<uint64_t>(64, opts.getUint("baseline-shots", 2000)));
    const unsigned num_clients =
        static_cast<unsigned>(opts.getUint("clients", 4));
    const size_t window = static_cast<size_t>(
        std::max<uint64_t>(16, opts.getUint("window", 512)));

    benchBanner("fleet_saturation",
                "sharded batch-coalesced TCP ingest vs synchronous "
                "per-shot round trips");

    ExperimentConfig ecfg;
    ecfg.distance = 5;
    ecfg.physicalErrorRate = 1e-3;
    auto ctx = std::make_shared<const ExperimentContext>(ecfg);
    const auto pool = sampleSyndromes(*ctx, 4096);

    std::printf("d=5 p=1e-3, %u shots/stream, %u client "
                "connection(s), window %zu\n\n",
                shots_per_stream, num_clients, window);

    const double single_per_sec =
        runSingleBaseline(ctx, pool, baseline_shots);
    std::printf("baseline (1 stream, sync per-shot RPC): %.0f "
                "shots/sec\n\n",
                single_per_sec);

    telemetry::JsonWriter report;
    if (!json_out.empty()) {
        beginBenchReport(report, "fleet_saturation");
        report.kv("d", uint64_t{5});
        report.kv("p", 1e-3);
        report.kv("shots_per_stream", uint64_t{shots_per_stream});
        report.kv("baseline_shots", uint64_t{baseline_shots});
        report.kv("clients", uint64_t{num_clients});
        report.kv("window", static_cast<uint64_t>(window));
        report.endObject();  // config
        report.key("results").beginArray();
    }

    std::printf("  %-10s %-7s %-10s %-9s %-12s %-11s %-11s %-9s\n",
                "case", "shards", "decoded", "shed", "shots/sec",
                "p50(us)", "p99(us)", "vs sync");
    for (const CaseSpec &spec : parseCases(cases_spec)) {
        const CaseResult r = runCase(spec, ctx, pool,
                                     shots_per_stream, num_clients,
                                     window);
        const double ratio = single_per_sec > 0.0
                                 ? r.shotsPerSec / single_per_sec
                                 : 0.0;
        char case_name[32];
        std::snprintf(case_name, sizeof(case_name), "%ux%u",
                      spec.streams, spec.shards);
        std::printf("  %-10s %-7u %-10llu %-9llu %-12.0f %-11.1f "
                    "%-11.1f %-9.2f\n",
                    case_name, spec.shards,
                    static_cast<unsigned long long>(r.decoded),
                    static_cast<unsigned long long>(r.shed),
                    r.shotsPerSec, r.p50Ns / 1000.0, r.p99Ns / 1000.0,
                    ratio);

        if (!json_out.empty()) {
            report.beginObject();
            report.kv("case", std::string(case_name));
            report.kv("streams", uint64_t{spec.streams});
            report.kv("shards", uint64_t{spec.shards});
            report.kv("sent", r.sent);
            report.kv("decoded", r.decoded);
            report.kv("shed", r.shed);
            report.kv("gave_ups", r.gaveUp);
            report.kv("elapsed_sec", r.elapsedSec);
            report.kv("shots_per_sec", r.shotsPerSec);
            report.kv("p50_ingest_ns", r.p50Ns);
            report.kv("p99_ingest_ns", r.p99Ns);
            report.kv("single_per_sec", single_per_sec);
            report.kv("fleet_vs_single", ratio);
            report.endObject();
        }
    }

    std::printf("\nvs sync is decoded shots/sec over the synchronous "
                "per-shot baseline on the\nsame loopback: sharding, "
                "windowed streams and batch coalescing amortize\n"
                "round trips and dispatch that the naive service pays "
                "per shot.\n");

    if (!json_out.empty()) {
        report.endArray();  // results
        finishBenchReport(report, json_out);
    }
    finishBenchProfile(opts);
    return 0;
}

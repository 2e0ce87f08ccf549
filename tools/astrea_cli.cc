/**
 * @file
 * Artifact-compatible command-line driver (paper Appendix B).
 *
 * The paper's Zenodo artifact exposes experiments through
 *
 *     mpirun -np <X> ./astrea <output-file> <experiment-no> <args...>
 *
 * This binary reproduces that interface (threads stand in for MPI
 * ranks) for the experiments the appendix documents:
 *
 *   experiment 6  <d> <p>                 - Table 2: Hamming-weight
 *       occurrence counts; appends "HW, count" lines.
 *   experiment 1  <d>                     - Figs. 12/14: LER sweep
 *       p = 1e-4..1e-3 (step 1e-4); appends one line per p whose
 *       1st entry is d, 2nd is p, 6th is the MWPM LER and 7th the
 *       Astrea-G LER (artifact column convention).
 *   experiment 12 <d> <t0> <t1> <step>    - Table 7: Astrea-G with
 *       decode-time budgets t0..t1 ns; appends lines whose 7th entry
 *       is the Astrea-G LER and 13th the time allotted for decoding.
 *
 * Beyond the artifact surface, `astrea_cli replay <capture.json>`
 * re-decodes a capture or a /traces/<id> trace-detail JSON (see
 * harness/replay.hh) and asserts the recorded verdicts reproduce;
 * --verbose narrates the trigger decode, --all narrates every record,
 * and --trace-id=HEX narrates the record with that trace id.
 *
 * `astrea_cli serve` runs the live decode service (see
 * harness/decode_service.hh): a continuous memory-experiment workload
 * with Prometheus /metrics, JSON /statusz and /healthz endpoints.
 * Flags override the ASTREA_SERVE_* environment knobs.
 *
 * All modes accept the shared forensics flags --log-level=LVL and
 * --chrome-trace=PATH (flags win over their ASTREA_* environment
 * equivalents). `replay --chrome-trace=PATH` keeps every record it
 * re-decodes, so the timeline shows each record's stage spans.
 *
 * Shot budgets default to laptop scale; override with ASTREA_SHOTS or
 * --shots. Results append to the output file, as the artifact does.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <random>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/env.hh"
#include "decoders/registry.hh"
#include "harness/decode_service.hh"
#include "net/fleet_client.hh"
#include "harness/hw_histogram.hh"
#include "harness/memory_experiment.hh"
#include "harness/replay.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_store.hh"

using namespace astrea;

namespace
{

std::FILE *
openAppend(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
    }
    return f;
}

int
experimentHwHistogram(const std::string &out_path, uint32_t d, double p,
                      uint64_t shots, uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.distance = d;
    cfg.physicalErrorRate = p;
    ExperimentContext ctx(cfg);
    HwDistribution dist = measureHwDistribution(ctx, shots, seed);

    std::FILE *f = openAppend(out_path);
    for (size_t h = 0; h <= dist.hist.maxObserved(); h++) {
        std::fprintf(f, "%zu, %llu\n", h,
                     static_cast<unsigned long long>(dist.hist.at(h)));
    }
    std::fclose(f);
    std::printf("experiment 6: %llu shots at d=%u p=%g -> %s\n",
                static_cast<unsigned long long>(shots), d, p,
                out_path.c_str());
    return 0;
}

int
experimentLerSweep(const std::string &out_path, uint32_t d,
                   uint64_t shots, uint64_t seed)
{
    std::FILE *f = openAppend(out_path);
    for (int step = 1; step <= 10; step++) {
        double p = 1e-4 * step;
        ExperimentConfig cfg;
        cfg.distance = d;
        cfg.physicalErrorRate = p;
        ExperimentContext ctx(cfg);

        auto mwpm = runMemoryExperiment(ctx, mwpmFactory(), shots,
                                        seed);
        auto ag =
            runMemoryExperiment(ctx, astreaGFactory(), shots, seed);

        // Artifact column convention: 1st = d, 2nd = p, 6th = MWPM
        // LER, 7th = Astrea-G LER; the rest is supplementary.
        std::fprintf(f, "%u %.6e %llu %llu %llu %.6e %.6e %llu\n", d,
                     p, static_cast<unsigned long long>(shots),
                     static_cast<unsigned long long>(
                         mwpm.logicalErrors.successes),
                     static_cast<unsigned long long>(
                         ag.logicalErrors.successes),
                     mwpm.ler(), ag.ler(),
                     static_cast<unsigned long long>(ag.gaveUps));
        std::printf("  d=%u p=%g: MWPM %s, Astrea-G %s\n", d, p,
                    formatProb(mwpm.ler()).c_str(),
                    formatProb(ag.ler()).c_str());
    }
    std::fclose(f);
    return 0;
}

int
experimentBandwidth(const std::string &out_path, uint32_t d, double t0,
                    double t1, double step, uint64_t shots,
                    uint64_t seed)
{
    const double p = 1e-3;
    ExperimentConfig cfg;
    cfg.distance = d;
    cfg.physicalErrorRate = p;
    ExperimentContext ctx(cfg);

    std::FILE *f = openAppend(out_path);
    for (double t = t0; t <= t1 + 1e-9; t += step) {
        AstreaGConfig agc;
        agc.cycleBudget = static_cast<uint64_t>(t * kFpgaClockGHz);
        auto r = runMemoryExperiment(ctx, astreaGFactory(agc), shots,
                                     seed);
        // 13 columns with the artifact's documented positions: 7th =
        // Astrea-G LER, 13th = time allotted for decoding.
        std::fprintf(f,
                     "%u %.6e %llu 0 0 0 %.6e 0 0 0 0 0 %.0f\n", d, p,
                     static_cast<unsigned long long>(shots), r.ler(),
                     t);
        std::printf("  d=%u t=%.0fns: Astrea-G %s\n", d, t,
                    formatProb(r.ler()).c_str());
    }
    std::fclose(f);
    return 0;
}

int
commandReplay(const std::vector<std::string> &pos, const Options &opts)
{
    if (pos.size() < 2) {
        std::fprintf(stderr,
                     "usage: astrea_cli replay <capture.json> "
                     "[--verbose] [--all] [--trace-id=HEX]\n");
        return 1;
    }
    ReplayCapture capture;
    std::string error;
    if (!loadCapture(pos[1], capture, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 2;
    }
    ReplayOptions ropts;
    ropts.verbose = opts.has("verbose") || opts.has("all");
    ropts.verboseAll = opts.has("all");
    const std::string trace_id = opts.getString("trace-id", "");
    if (!trace_id.empty()) {
        ropts.traceId = telemetry::parseTraceIdHex(trace_id);
        if (ropts.traceId == 0) {
            std::fprintf(stderr, "replay: bad --trace-id '%s'\n",
                         trace_id.c_str());
            return 1;
        }
        ropts.verbose = true;  // Narrating the trace is the point.
    }
    // A replay writes no capture of its own, and keeps every record it
    // re-decodes when tracing is on (--chrome-trace).
    telemetry::TraceStore &store = telemetry::TraceStore::global();
    store.setCapturePath("");
    store.setCaptureDir("");
    telemetry::TraceRetentionConfig retention = telemetry::traceRetention();
    retention.headStride = 1;
    telemetry::setTraceRetention(retention);
    ReplaySummary summary = replayCapture(capture, ropts, std::cout);
    return summary.ok() ? 0 : 1;
}

/**
 * `astrea_cli list-decoders`: print the registry's metadata — the one
 * source of truth for every name the harness, service, benches and
 * replayer accept.
 */
int
commandListDecoders()
{
    const auto infos = DecoderRegistry::global().listDecoders();
    size_t name_w = 0;
    for (const DecoderInfo &info : infos) {
        std::string names = info.name;
        for (const std::string &a : info.aliases)
            names += ", " + a;
        name_w = std::max(name_w, names.size());
    }
    for (const DecoderInfo &info : infos) {
        std::string names = info.name;
        for (const std::string &a : info.aliases)
            names += ", " + a;
        std::printf("%-*s  %-8s  %s\n", static_cast<int>(name_w),
                    names.c_str(), decoderKindName(info.kind),
                    info.description.c_str());
    }
    return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void
serveSignalHandler(int)
{
    g_serve_stop = 1;
}

/**
 * `astrea_cli serve`: run the live decode service until a duration
 * elapses or SIGINT/SIGTERM arrives. Flags override the ASTREA_SERVE_*
 * environment knobs.
 */
int
commandServe(const Options &opts)
{
    ServeConfig cfg;
    cfg.distance = static_cast<uint32_t>(
        opts.getUint("d", env::getUint("ASTREA_SERVE_D", 5, 3)));
    cfg.rounds = static_cast<uint32_t>(opts.getUint("rounds", 0));
    cfg.physicalErrorRate =
        opts.getDouble("p", env::getDouble("ASTREA_SERVE_P", 1e-3));
    cfg.decoder = opts.getString(
        "decoder", env::getString("ASTREA_SERVE_DECODER", "astrea"));
    cfg.workers = static_cast<unsigned>(opts.getUint(
        "threads", env::getUint("ASTREA_SERVE_THREADS", 2, 1)));
    cfg.seed = opts.getUint("seed", 1);
    cfg.budgetNs = opts.getDouble(
        "budget-ns", env::getDouble("ASTREA_SERVE_BUDGET_NS", 1000.0));
    cfg.sloTarget = opts.getDouble(
        "slo-target", env::getDouble("ASTREA_SERVE_SLO_TARGET", 0.999));
    cfg.auditRate = opts.getDouble(
        "audit-rate", env::getDouble("ASTREA_AUDIT_RATE", 0.0));
    cfg.auditThreads = static_cast<unsigned>(opts.getUint(
        "audit-threads", env::getUint("ASTREA_AUDIT_THREADS", 1, 1)));
    cfg.auditQueue = opts.getUint(
        "audit-queue", env::getUint("ASTREA_AUDIT_QUEUE", 1024, 2));
    cfg.auditDpMaxHw = static_cast<uint32_t>(opts.getUint(
        "audit-dp-max-hw", env::getUint("ASTREA_AUDIT_DP_MAX_HW", 16)));
    cfg.traceEnabled =
        opts.getUint("trace", env::getBool("ASTREA_TRACE", true) ? 1
                                                                 : 0) != 0;
    cfg.traceTailNs = opts.getDouble(
        "trace-tail-ns", env::getDouble("ASTREA_TRACE_TAIL_NS", 0.0));
    cfg.traceStride = opts.getUint(
        "trace-stride", env::getUint("ASTREA_TRACE_STRIDE", 8192));
    cfg.traceRing = opts.getUint(
        "trace-ring", env::getUint("ASTREA_TRACE_RING", 1024, 1));

    cfg.fleetEnabled =
        opts.getUint("fleet",
                     env::getBool("ASTREA_FLEET", false) ? 1 : 0) != 0;
    cfg.fleet.shards = static_cast<size_t>(opts.getUint(
        "fleet-shards", env::getUint("ASTREA_FLEET_SHARDS", 2, 1)));
    cfg.fleet.ringCapacity = static_cast<size_t>(opts.getUint(
        "fleet-ring", env::getUint("ASTREA_FLEET_RING", 1024, 2)));
    cfg.fleet.maxBatch = static_cast<size_t>(opts.getUint(
        "fleet-max-batch",
        env::getUint("ASTREA_FLEET_MAX_BATCH", 64, 1)));
    cfg.fleet.shedLowWatermark = opts.getDouble(
        "fleet-shed-low", env::getDouble("ASTREA_FLEET_SHED_LOW", 0.5));
    cfg.fleet.shedHighWatermark = opts.getDouble(
        "fleet-shed-high",
        env::getDouble("ASTREA_FLEET_SHED_HIGH", 0.9));
    cfg.fleetBind = opts.getString(
        "fleet-bind", env::getString("ASTREA_FLEET_BIND", "127.0.0.1"));
    cfg.fleetPort = static_cast<uint16_t>(opts.getUint(
        "fleet-port", env::getUint("ASTREA_FLEET_PORT", 0)));

    const std::string bind = opts.getString(
        "bind", env::getString("ASTREA_SERVE_BIND", "127.0.0.1"));
    const uint16_t port = static_cast<uint16_t>(
        opts.getUint("port", env::getUint("ASTREA_SERVE_PORT", 0)));
    const std::string duration_text = opts.getString(
        "duration", env::getString("ASTREA_SERVE_DURATION", ""));
    const std::string port_file = opts.getString("port-file", "");
    const std::string fleet_port_file =
        opts.getString("fleet-port-file", "");

    uint64_t duration_ms = 0;  // 0 = run until a signal.
    if (!duration_text.empty() &&
        !parseDurationMillis(duration_text, &duration_ms)) {
        std::fprintf(stderr, "serve: bad --duration '%s'\n",
                     duration_text.c_str());
        return 1;
    }

    // The service is pointless without its own metrics.
    telemetry::setEnabled(true);

    DecodeService svc(cfg);
    std::string error;
    if (!svc.start(bind, port, &error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 2;
    }

    if (!port_file.empty()) {
        std::ofstream pf(port_file, std::ios::trunc);
        pf << svc.port() << "\n";
        if (!pf) {
            std::fprintf(stderr, "serve: cannot write %s\n",
                         port_file.c_str());
            svc.stop();
            return 2;
        }
    }
    if (!fleet_port_file.empty() && cfg.fleetEnabled) {
        std::ofstream pf(fleet_port_file, std::ios::trunc);
        pf << svc.fleetPort() << "\n";
        if (!pf) {
            std::fprintf(stderr, "serve: cannot write %s\n",
                         fleet_port_file.c_str());
            svc.stop();
            return 2;
        }
    }

    std::printf("serve: %s decoder, d=%u p=%g, %u workers on "
                "http://%s:%u (/metrics /statusz /healthz /traces "
                "/pprof/profile)\n",
                cfg.decoder.c_str(), cfg.distance,
                cfg.physicalErrorRate, cfg.workers, bind.c_str(),
                svc.port());
    if (cfg.auditRate > 0.0)
        std::printf("serve: auditing %g of decodes (%u audit "
                    "thread%s, queue %llu)\n",
                    cfg.auditRate, cfg.auditThreads,
                    cfg.auditThreads == 1 ? "" : "s",
                    static_cast<unsigned long long>(cfg.auditQueue));
    if (cfg.traceEnabled) {
        std::string tail =
            cfg.traceTailNs > 0.0
                ? std::to_string(
                      static_cast<long long>(cfg.traceTailNs)) +
                      "ns"
                : "auto-p99";
        std::printf("serve: tail tracing on (tail %s, stride %llu, "
                    "ring %llu) -> /traces\n",
                    tail.c_str(),
                    static_cast<unsigned long long>(cfg.traceStride),
                    static_cast<unsigned long long>(cfg.traceRing));
    }
    if (cfg.fleetEnabled)
        std::printf("serve: fleet ingest on %s:%u (%llu shards, "
                    "ring %llu, batch up to %llu)\n",
                    cfg.fleetBind.c_str(), svc.fleetPort(),
                    static_cast<unsigned long long>(cfg.fleet.shards),
                    static_cast<unsigned long long>(
                        cfg.fleet.ringCapacity),
                    static_cast<unsigned long long>(cfg.fleet.maxBatch));
    std::fflush(stdout);

    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    const auto start = std::chrono::steady_clock::now();
    while (!g_serve_stop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (duration_ms != 0) {
            auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (static_cast<uint64_t>(elapsed) >= duration_ms)
                break;
        }
    }

    svc.stop();
    std::printf("serve: stopped after %llu decodes\n",
                static_cast<unsigned long long>(
                    svc.core().totalDecodes()));
    return 0;
}

/**
 * `astrea_cli fleet-client`: blast synthetic syndrome traffic at a
 * fleet ingest port and account for every verdict. Exists for the CI
 * smoke leg and for eyeballing a live fleet; exits nonzero when any
 * sent shot goes unanswered.
 */
int
commandFleetClient(const Options &opts)
{
    const std::string host = opts.getString("host", "127.0.0.1");
    uint16_t port = static_cast<uint16_t>(opts.getUint("port", 0));
    const std::string port_file = opts.getString("port-file", "");
    if (port == 0 && !port_file.empty()) {
        std::ifstream pf(port_file);
        unsigned p = 0;
        if (!(pf >> p) || p == 0 || p > 65535) {
            std::fprintf(stderr, "fleet-client: cannot read port "
                                 "from %s\n",
                         port_file.c_str());
            return 1;
        }
        port = static_cast<uint16_t>(p);
    }
    if (port == 0) {
        std::fprintf(stderr,
                     "fleet-client: need --port=N or --port-file\n");
        return 1;
    }

    const uint32_t streams = static_cast<uint32_t>(
        std::max<uint64_t>(1, opts.getUint("streams", 8)));
    const uint32_t shots_per_stream = static_cast<uint32_t>(
        std::max<uint64_t>(1, opts.getUint("shots", 64)));
    const uint32_t max_hw =
        static_cast<uint32_t>(opts.getUint("max-hw", 4));
    const uint64_t seed = opts.getUint("seed", 1);

    net::FleetClient client;
    std::string error;
    if (!client.connect(host, port, &error)) {
        std::fprintf(stderr, "fleet-client: %s\n", error.c_str());
        return 2;
    }
    const uint32_t bits = client.numDetectorBits();
    std::printf("fleet-client: connected to %s:%u (%u detector "
                "bits); %u streams x %u shots\n",
                host.c_str(), port, bits, streams, shots_per_stream);

    const uint64_t total =
        static_cast<uint64_t>(streams) * shots_per_stream;
    std::atomic<uint64_t> decoded{0}, shed{0}, gave_up{0}, errors{0};
    std::atomic<uint64_t> verdicts{0};
    std::thread reader([&] {
        net::FleetClientVerdict v;
        while (verdicts.load(std::memory_order_relaxed) < total &&
               client.readVerdict(v)) {
            verdicts.fetch_add(1, std::memory_order_relaxed);
            if (v.error)
                errors.fetch_add(1, std::memory_order_relaxed);
            else if (v.shed)
                shed.fetch_add(1, std::memory_order_relaxed);
            else if (v.gaveUp)
                gave_up.fetch_add(1, std::memory_order_relaxed);
            else
                decoded.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // Round-robin the streams so every shard sees interleaved
    // traffic, the worst case for the coalescer.
    std::mt19937_64 rng(seed);
    std::vector<uint32_t> defects;
    uint64_t sent = 0;
    bool send_ok = true;
    for (uint32_t s = 0; s < shots_per_stream && send_ok; s++) {
        for (uint32_t st = 0; st < streams && send_ok; st++) {
            defects.clear();
            if (bits > 0 && max_hw > 0) {
                const uint32_t hw = static_cast<uint32_t>(
                    rng() % (std::min(max_hw, bits) + 1));
                while (defects.size() < hw) {
                    const uint32_t d =
                        static_cast<uint32_t>(rng() % bits);
                    if (std::find(defects.begin(), defects.end(), d) ==
                        defects.end())
                        defects.push_back(d);
                }
                std::sort(defects.begin(), defects.end());
            }
            const uint8_t priority =
                static_cast<uint8_t>(rng() % 8);
            send_ok = client.sendShot(st, s, priority, defects);
            if (send_ok)
                sent++;
        }
    }
    if (send_ok)
        send_ok = client.flush();
    reader.join();
    client.close();

    std::printf("fleet-client: sent %llu, verdicts %llu "
                "(decoded %llu, shed %llu, gave_up %llu, "
                "error %llu)\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(verdicts.load()),
                static_cast<unsigned long long>(decoded.load()),
                static_cast<unsigned long long>(shed.load()),
                static_cast<unsigned long long>(gave_up.load()),
                static_cast<unsigned long long>(errors.load()));
    if (!send_ok) {
        std::fprintf(stderr, "fleet-client: connection lost while "
                             "sending\n");
        return 2;
    }
    return verdicts.load() == total ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <output-file> <experiment-no> <args...>\n"
        "  6  <d> <p>              Hamming-weight histogram\n"
        "  1  <d>                  LER sweep p=1e-4..1e-3\n"
        "  12 <d> <t0> <t1> <dt>   decode-budget sweep (ns)\n"
        "or:    %s replay <capture.json|trace.json> [--verbose] "
        "[--all] [--trace-id=HEX]\n"
        "or:    %s serve [--d=N] [--p=P] [--decoder=NAME] "
        "[--threads=N] [--port=N] [--bind=ADDR] [--duration=2s] "
        "[--port-file=PATH] [--budget-ns=NS] [--audit-rate=F] "
        "[--audit-threads=N] [--audit-queue=N] "
        "[--audit-dp-max-hw=N] [--trace=0|1] [--trace-tail-ns=NS] "
        "[--trace-stride=N] [--trace-ring=N] [--fleet=0|1] "
        "[--fleet-shards=N] [--fleet-ring=N] [--fleet-max-batch=N] "
        "[--fleet-shed-low=F] [--fleet-shed-high=F] "
        "[--fleet-bind=ADDR] [--fleet-port=N] "
        "[--fleet-port-file=PATH]\n"
        "or:    %s fleet-client [--host=ADDR] --port=N|"
        "--port-file=PATH [--streams=M] [--shots=K] [--max-hw=N] "
        "[--seed=N]\n"
        "or:    %s list-decoders\n"
        "flags: --shots=N --seed=N --log-level=LVL "
        "--chrome-trace=PATH --perf-counters\n"
        "       (serve exposes /pprof/profile?seconds=N&hz=H"
        "&format=collapsed|speedscope)\n",
        argv0, argv0, argv0, argv0, argv0);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    applyForensicsOptions(opts);

    // Positional arguments: everything that is not a --flag.
    std::vector<std::string> pos;
    for (int i = 1; i < argc; i++) {
        if (std::string(argv[i]).rfind("--", 0) != 0)
            pos.push_back(argv[i]);
    }

    if (!pos.empty() && pos[0] == "replay")
        return commandReplay(pos, opts);
    if (!pos.empty() && pos[0] == "serve")
        return commandServe(opts);
    if (!pos.empty() && pos[0] == "fleet-client")
        return commandFleetClient(opts);
    if (!pos.empty() && pos[0] == "list-decoders")
        return commandListDecoders();

    if (pos.size() < 2)
        return usage(argv[0]);
    const uint64_t seed = opts.getUint("seed", 1);
    const std::string &out_path = pos[0];
    int experiment = std::atoi(pos[1].c_str());

    switch (experiment) {
      case 6: {
        if (pos.size() < 4) {
            std::fprintf(stderr, "experiment 6 needs <d> <p>\n");
            return 1;
        }
        uint64_t shots = opts.getUint("shots", 2000000);
        return experimentHwHistogram(
            out_path, static_cast<uint32_t>(std::atoi(pos[2].c_str())),
            std::atof(pos[3].c_str()), shots, seed);
      }
      case 1: {
        if (pos.size() < 3) {
            std::fprintf(stderr, "experiment 1 needs <d>\n");
            return 1;
        }
        uint64_t shots = opts.getUint("shots", 100000);
        return experimentLerSweep(
            out_path, static_cast<uint32_t>(std::atoi(pos[2].c_str())),
            shots, seed);
      }
      case 12: {
        if (pos.size() < 6) {
            std::fprintf(stderr,
                         "experiment 12 needs <d> <t0> <t1> <dt>\n");
            return 1;
        }
        uint64_t shots = opts.getUint("shots", 50000);
        return experimentBandwidth(
            out_path, static_cast<uint32_t>(std::atoi(pos[2].c_str())),
            std::atof(pos[3].c_str()), std::atof(pos[4].c_str()),
            std::atof(pos[5].c_str()), shots, seed);
      }
      default:
        std::fprintf(stderr, "unknown experiment %d\n", experiment);
        return 1;
    }
}

/**
 * @file
 * Microbenchmarks of the matching hot path.
 *
 * The headline section times the Astrea exhaustive candidate
 * evaluation three ways on real sampled syndromes of each Hamming
 * weight (4, 6, 8, 10):
 *
 *  - legacy: the pre-kernel hot path — walk the canonical enumerator
 *    and price every pair through Global Weight Table callbacks,
 *    recomputing the boundary-vs-direct min per probe;
 *  - scalar: LwtTile gather + the portable unrolled table kernel;
 *  - simd: LwtTile gather + the AVX2 kernel, which the AVX-512 tier
 *    runs too (JSON columns are null on hosts without AVX2, and
 *    tools/bench_compare.py skips them).
 *
 * Results go to stdout and, with --json-out, into a matching_micro
 * JSON report (per-HW kernel timings plus speedups over legacy) that
 * tools/bench_compare.py gates against bench/baselines/
 * matching_micro.json. The bench times each kernel explicitly,
 * whatever ASTREA_FORCE_KERNEL pins for the decoders.
 *
 * The original google-benchmark suite (blossom, DP, full decoders,
 * samplers), with the decoding-graph and GWT builds at d = 5, 7 and 9,
 * is kept behind --gbench.
 *
 * Usage: bench_matching_micro [--json-out=report.json] [--reps=N]
 *                             [--gbench [--benchmark_filter=...]]
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "astrea/lwt_tile.hh"
#include "astrea/matching_tables.hh"
#include "astrea/simd_kernel.hh"
#include "bench_util.hh"
#include "decoders/registry.hh"
#include "harness/memory_experiment.hh"
#include "sim/batch_frame_sim.hh"
#include "sim/frame_sim.hh"
#include "matching/blossom.hh"
#include "matching/dp_matcher.hh"
#include "matching/enumerator.hh"

using namespace astrea;

namespace
{

/** A p = 1e-3 context at distance d, built once per distance. */
const ExperimentContext &
contextAt(int64_t d)
{
    static std::map<int64_t, ExperimentContext> contexts;
    auto it = contexts.find(d);
    if (it == contexts.end()) {
        ExperimentConfig cfg;
        cfg.distance = static_cast<uint32_t>(d);
        cfg.physicalErrorRate = 1e-3;
        it = contexts.emplace(d, ExperimentContext(cfg)).first;
    }
    return it->second;
}

/** Shared d = 7, p = 1e-3 context (built once). */
const ExperimentContext &
benchContext()
{
    return contextAt(7);
}

/** Pre-sampled syndromes of a fixed Hamming weight. */
std::vector<std::vector<uint32_t>>
syndromesOfWeight(size_t hw, size_t count)
{
    const auto &ctx = benchContext();
    std::vector<std::vector<uint32_t>> out;
    Rng rng(42 + hw);
    BitVec dets, obs;
    size_t guard = 0;
    while (out.size() < count && ++guard < 40000000) {
        ctx.sampler().sample(rng, dets, obs);
        if (dets.popcount() == hw)
            out.push_back(dets.onesIndices());
    }
    // Fall back to padding with the last sample if the weight is rare.
    while (!out.empty() && out.size() < count)
        out.push_back(out.back());
    return out;
}

/** Defeat dead-code elimination across the timed loops. */
volatile uint64_t g_sink = 0;

/**
 * The pre-kernel hot path: evaluate every perfect matching of one
 * syndrome's defects through per-pair GWT callbacks with the
 * boundary-vs-direct effective-weight min recomputed on every probe.
 */
uint64_t
legacyEvaluate(const GlobalWeightTable &gwt,
               const std::vector<uint32_t> &defects)
{
    const int m = static_cast<int>(defects.size());
    auto weight = [&](int i, int j) -> WeightSum {
        const uint32_t a = defects[i], b = defects[j];
        const WeightSum direct = gwt.pairWeight(a, b);
        const WeightSum via =
            addWeights(gwt.pairWeight(a, a), gwt.pairWeight(b, b));
        return direct < via ? direct : via;
    };
    WeightSum best = kInfiniteWeightSum;
    uint32_t best_row = 0, row = 0;
    forEachPerfectMatchingT(m, [&](const PairList &pl) {
        WeightSum sum = 0;
        for (auto [i, j] : pl)
            sum = addWeights(sum, weight(i, j));
        if (sum < best) {
            best = sum;
            best_row = row;
        }
        row++;
    });
    return best + best_row;
}

/** Tile gather + one flat kernel pass with the requested kernel. */
uint64_t
kernelEvaluate(const GlobalWeightTable &gwt,
               const std::vector<uint32_t> &defects, LwtTile &tile,
               KernelKind kind)
{
    tile.build(gwt, defects, /*effective_weights=*/true);
    const MatchingTable &table = MatchingTable::forNodes(tile.nodes());
    const KernelMatch km = matchTile16(table, tile.weights(), kind);
    return static_cast<uint64_t>(km.weight) + km.row;
}

/** Nanoseconds per call of fn over the syndrome set, with warm-up. */
template <class Fn>
double
timeNsPerCall(const std::vector<std::vector<uint32_t>> &syndromes,
              uint64_t reps, const Fn &fn)
{
    const size_t n = syndromes.size();
    uint64_t sink = 0;
    for (uint64_t i = 0; i < reps / 10 + 1; i++)
        sink += fn(syndromes[i % n]);
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < reps; i++)
        sink += fn(syndromes[i % n]);
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + sink;
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    return ns / static_cast<double>(reps);
}

/** One per-HW row of the kernel comparison. */
struct MicroResult
{
    int m = 0;
    uint32_t rows = 0;
    uint64_t reps = 0;
    double legacyNs = 0.0;
    double scalarNs = 0.0;
    double simdNs = 0.0;  // 0 when AVX2 is unavailable.
};

MicroResult
runKernelMicro(size_t hw, uint64_t reps_override)
{
    const GlobalWeightTable &gwt = benchContext().gwt();
    auto syndromes = syndromesOfWeight(hw, 64);
    ASTREA_CHECK(!syndromes.empty(), "no syndromes of requested weight");

    MicroResult r;
    r.m = static_cast<int>(hw);
    r.rows = MatchingTable::forNodes(r.m).rows();

    // Scale the repetition count to the candidate count so every row
    // costs comparable (small) wall-clock.
    r.reps = reps_override != 0
                 ? reps_override
                 : std::max<uint64_t>(1000, 400000 / r.rows);

    LwtTile tile;
    tile.reserve(r.m);

    // Sanity: every implementation must award the same weight.
    for (const auto &s : syndromes) {
        const uint64_t legacy = legacyEvaluate(gwt, s);
        const uint64_t scalar =
            kernelEvaluate(gwt, s, tile, KernelKind::kScalar);
        ASTREA_CHECK(legacy == scalar,
                     "scalar kernel disagrees with legacy evaluation");
        if (cpuHasAvx2()) {
            const uint64_t simd =
                kernelEvaluate(gwt, s, tile, KernelKind::kAvx2);
            ASTREA_CHECK(simd == scalar,
                         "AVX2 kernel disagrees with scalar kernel");
        }
    }

    r.legacyNs = timeNsPerCall(
        syndromes, r.reps,
        [&](const std::vector<uint32_t> &s) {
            return legacyEvaluate(gwt, s);
        });
    r.scalarNs = timeNsPerCall(
        syndromes, r.reps,
        [&](const std::vector<uint32_t> &s) {
            return kernelEvaluate(gwt, s, tile, KernelKind::kScalar);
        });
    if (cpuHasAvx2()) {
        r.simdNs = timeNsPerCall(
            syndromes, r.reps,
            [&](const std::vector<uint32_t> &s) {
                return kernelEvaluate(gwt, s, tile,
                                      KernelKind::kAvx2);
            });
    }
    return r;
}

void
runKernelSection(const Options &opts, const std::string &json_out)
{
    benchBanner("matching_micro",
                "candidate-evaluation kernels vs the legacy "
                "enumerator hot path");
    std::printf("d=7, p=1e-3 syndromes; active decoder kernel: %s%s\n\n",
                kernelKindName(activeKernelKind()),
                cpuHasAvx2() ? "" : " (no AVX2 on this CPU)");

    const uint64_t reps_override = opts.getUint("reps", 0);

    telemetry::JsonWriter report;
    if (!json_out.empty()) {
        beginBenchReport(report, "matching_micro");
        report.kv("d", uint64_t{7});
        report.kv("p", 1e-3);
        report.kv("simd_available", cpuHasAvx2());
        report.kv("active_kernel",
                  std::string(kernelKindName(activeKernelKind())));
        report.endObject();  // config
        report.key("results").beginArray();
    }

    std::printf("%-4s %-6s %-8s %-12s %-12s %-12s %-9s %-9s\n", "m",
                "rows", "reps", "legacy (ns)", "scalar (ns)",
                "simd (ns)", "x scalar", "x simd");
    for (size_t hw : {4u, 6u, 8u, 10u}) {
        const MicroResult r = runKernelMicro(hw, reps_override);
        const double speedup_scalar =
            r.scalarNs > 0.0 ? r.legacyNs / r.scalarNs : 0.0;
        const double speedup_simd =
            r.simdNs > 0.0 ? r.legacyNs / r.simdNs : 0.0;
        std::printf("%-4d %-6u %-8llu %-12.1f %-12.1f %-12.1f %-9.2f "
                    "%-9.2f\n",
                    r.m, r.rows,
                    static_cast<unsigned long long>(r.reps), r.legacyNs,
                    r.scalarNs, r.simdNs, speedup_scalar, speedup_simd);

        if (!json_out.empty()) {
            report.beginObject();
            report.kv("m", static_cast<uint64_t>(r.m));
            report.kv("rows", uint64_t{r.rows});
            report.kv("reps", r.reps);
            report.kv("legacy_ns", r.legacyNs);
            report.kv("scalar_ns", r.scalarNs);
            report.kv("speedup_scalar", speedup_scalar);
            // The AVX2 columns stay present-but-null on hosts without
            // AVX2 so baseline comparisons can tell "not measured
            // here" from "regressed to nothing".
            if (cpuHasAvx2()) {
                report.kv("simd_ns", r.simdNs);
                report.kv("speedup_simd", speedup_simd);
            } else {
                report.key("simd_ns").null();
                report.key("speedup_simd").null();
            }
            report.endObject();
        }
    }
    std::printf("\nspeedups are per-decode (tile gather included) over "
                "the callback-driven\nenumerator; the HW-10 row is the "
                "paper's worst-case exhaustive search.\n");

    if (!json_out.empty()) {
        report.endArray();  // results
        finishBenchReport(report, json_out);
    }
}

void
BM_BlossomCompleteGraph(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(7);
    std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n));
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++)
            w[i][j] = w[j][i] =
                static_cast<int64_t>(rng.uniformInt(1000));
    for (auto _ : state) {
        auto mate = minWeightPerfectMatching(
            n, [&](int i, int j) { return w[i][j]; });
        benchmark::DoNotOptimize(mate);
    }
}
BENCHMARK(BM_BlossomCompleteGraph)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void
BM_DpMatcher(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(9);
    std::vector<std::vector<double>> w(n, std::vector<double>(n));
    std::vector<double> wb(n);
    for (int i = 0; i < n; i++) {
        wb[i] = static_cast<double>(rng.uniformInt(100));
        for (int j = i + 1; j < n; j++)
            w[i][j] = w[j][i] = static_cast<double>(rng.uniformInt(100));
    }
    for (auto _ : state) {
        auto sol = dpMatchWithBoundary(
            n, [&](int i, int j) { return w[i][j]; },
            [&](int i) { return wb[i]; });
        benchmark::DoNotOptimize(sol);
    }
}
BENCHMARK(BM_DpMatcher)->Arg(8)->Arg(12)->Arg(16);

void
BM_AstreaDecode(benchmark::State &state)
{
    const size_t hw = static_cast<size_t>(state.range(0));
    auto syndromes = syndromesOfWeight(hw, 64);
    if (syndromes.empty()) {
        state.SkipWithError("no syndromes of requested weight");
        return;
    }
    auto dec =
        makeDecoder("astrea", decoderOptionsFor(benchContext()));
    DecodeResult r;
    DecodeScratch scratch;
    size_t i = 0;
    for (auto _ : state) {
        dec->decodeInto(syndromes[i++ % syndromes.size()], r, scratch);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_AstreaDecode)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void
BM_AstreaGDecode(benchmark::State &state)
{
    const size_t hw = static_cast<size_t>(state.range(0));
    auto syndromes = syndromesOfWeight(hw, 16);
    if (syndromes.empty()) {
        state.SkipWithError("no syndromes of requested weight");
        return;
    }
    auto dec =
        makeDecoder("astrea-g", decoderOptionsFor(benchContext()));
    DecodeResult r;
    DecodeScratch scratch;
    size_t i = 0;
    for (auto _ : state) {
        dec->decodeInto(syndromes[i++ % syndromes.size()], r, scratch);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_AstreaGDecode)->Arg(12)->Arg(14);

void
BM_MwpmDecode(benchmark::State &state)
{
    const size_t hw = static_cast<size_t>(state.range(0));
    auto syndromes = syndromesOfWeight(hw, 32);
    if (syndromes.empty()) {
        state.SkipWithError("no syndromes of requested weight");
        return;
    }
    auto dec = makeDecoder("mwpm", decoderOptionsFor(benchContext()));
    DecodeResult r;
    DecodeScratch scratch;
    size_t i = 0;
    for (auto _ : state) {
        dec->decodeInto(syndromes[i++ % syndromes.size()], r, scratch);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MwpmDecode)->Arg(4)->Arg(8)->Arg(12);

void
BM_UnionFindDecode(benchmark::State &state)
{
    const size_t hw = static_cast<size_t>(state.range(0));
    auto syndromes = syndromesOfWeight(hw, 32);
    if (syndromes.empty()) {
        state.SkipWithError("no syndromes of requested weight");
        return;
    }
    auto dec =
        makeDecoder("union-find", decoderOptionsFor(benchContext()));
    DecodeResult r;
    DecodeScratch scratch;
    size_t i = 0;
    for (auto _ : state) {
        dec->decodeInto(syndromes[i++ % syndromes.size()], r, scratch);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_UnionFindDecode)->Arg(4)->Arg(8)->Arg(12);

void
BM_DecodingGraphBuild(benchmark::State &state)
{
    const ErrorModel &model = contextAt(state.range(0)).errorModel();
    for (auto _ : state) {
        DecodingGraph graph(model);
        benchmark::DoNotOptimize(graph.edges().data());
    }
}
BENCHMARK(BM_DecodingGraphBuild)->Arg(5)->Arg(7)->Arg(9);

/** Real time: the rows are built on defaultWorkerCount() workers. */
void
BM_GwtBuild(benchmark::State &state)
{
    const DecodingGraph &graph = contextAt(state.range(0)).graph();
    for (auto _ : state) {
        GlobalWeightTable gwt(graph);
        benchmark::DoNotOptimize(gwt.exactWeight(0, 0));
    }
}
BENCHMARK(BM_GwtBuild)->Arg(5)->Arg(7)->Arg(9)->UseRealTime();

void
BM_DemSamplerShot(benchmark::State &state)
{
    const auto &ctx = benchContext();
    Rng rng(13);
    BitVec dets, obs;
    for (auto _ : state) {
        ctx.sampler().sample(rng, dets, obs);
        benchmark::DoNotOptimize(dets);
    }
}
BENCHMARK(BM_DemSamplerShot);

void
BM_ScalarFrameSimShot(benchmark::State &state)
{
    const auto &ctx = benchContext();
    FrameSimulator sim(ctx.circuit());
    Rng rng(15);
    BitVec dets, obs;
    for (auto _ : state) {
        sim.sample(rng, dets, obs);
        benchmark::DoNotOptimize(dets);
    }
}
BENCHMARK(BM_ScalarFrameSimShot);

void
BM_BatchFrameSim64Shots(benchmark::State &state)
{
    const auto &ctx = benchContext();
    BatchFrameSimulator sim(ctx.circuit());
    Rng rng(17);
    std::vector<uint64_t> dets, obs;
    for (auto _ : state) {
        sim.sampleBatch(rng, dets, obs);
        benchmark::DoNotOptimize(dets);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BatchFrameSim64Shots);

} // namespace

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const std::string json_out = initBenchReport(opts);

    runKernelSection(opts, json_out);

    if (opts.has("gbench")) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }
    return 0;
}

/**
 * @file
 * LER-engine probe of the traced run: runMemoryExperiment at d=9,
 * p=1e-3 with astrea-g on one worker thread (the paper's Astrea-G
 * regime, the path bench_ler_* and Table 4 use), kCalls calls of
 * kCallShots shots from the run's seed, each through a timing decoder
 * wrapper. Call i gets seed + i * golden ratio.
 *
 * Output checks: call 0 is recounted outside runMemoryExperiment —
 * same RNG stream, same 64-shot decodeBatch blocks — and its
 * logical-error and give-up counts must match; the first kParityShots
 * of those shots must decode identically through decodeBatch and
 * per-shot decodeInto.
 */

#include <algorithm>

#include "common/rng.hh"
#include "harness/memory_experiment.hh"
#include "layers.hh"
#include "probes.hh"
#include "report.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

using namespace astrea;

constexpr uint32_t kDistance = 9;
constexpr double kErrorRate = 1e-3;
constexpr const char *kDecoder = "astrea-g";
constexpr uint64_t kCallShots = 16384;
/** Fixed, so the counts repeat exactly for a seed. */
constexpr uint64_t kCalls = 32;
constexpr uint64_t kParityShots = 4096;
/** runMemoryExperiment's sample/decode block size. */
constexpr uint64_t kBlock = 64;

uint64_t
callSeed(uint64_t seed, uint64_t i)
{
    return seed + i * 0x9E3779B97F4A7C15ull;
}

double
ratio(uint64_t a, uint64_t b)
{
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/** Re-run call 0 outside runMemoryExperiment; see file comment. */
void
checkCallZero(RunResult &r, const ExperimentContext &ctx,
              const DecoderFactory &factory, uint64_t seed,
              const ExperimentResult &first)
{
    // runMemoryExperiment with one thread draws worker 0's stream.
    Rng rng = Rng(callSeed(seed, 0)).split(0);
    SyndromeBatch shots;
    std::vector<uint64_t> actuals;
    sampleShots(ctx, rng, kCallShots, &shots, &actuals);

    auto batch_dec = factory(ctx);
    SyndromeBatch batch;
    std::vector<DecodeResult> results;
    DecodeScratch scratch;
    uint64_t errors = 0, gave_ups = 0;
    std::vector<uint64_t> obs(kParityShots);
    std::vector<uint8_t> gave(kParityShots);
    for (uint64_t b = 0; b < kCallShots; b += kBlock) {
        const uint64_t n = std::min(kBlock, kCallShots - b);
        batch.clear();
        for (uint64_t i = 0; i < n; i++)
            batch.add(shots.at(b + i));
        batch_dec->decodeBatch(batch, results, scratch);
        for (uint64_t i = 0; i < n; i++) {
            errors += results[i].obsMask != actuals[b + i] ? 1 : 0;
            gave_ups += results[i].gaveUp ? 1 : 0;
            if (b + i < kParityShots) {
                obs[b + i] = results[i].obsMask;
                gave[b + i] = results[i].gaveUp ? 1 : 0;
            }
        }
    }
    const bool counts_ok = first.logicalErrors.trials == kCallShots &&
                           first.logicalErrors.successes == errors &&
                           first.gaveUps == gave_ups;
    if (!counts_ok)
        r.fail("runMemoryExperiment counts differ from the recount");

    auto shot_dec = factory(ctx);
    DecodeResult one;
    DecodeScratch one_scratch;
    uint64_t parity_mismatch = 0, digest = 0;
    for (uint64_t i = 0; i < kParityShots; i++) {
        shot_dec->decodeInto(shots.at(i), one, one_scratch);
        if (one.obsMask != obs[i] || one.gaveUp != (gave[i] != 0))
            parity_mismatch++;
        digest += mix64(i ^ mix64(obs[i] ^ (gave[i] ? 1ull << 63 : 0)));
    }
    if (parity_mismatch != 0)
        r.fail("decodeBatch differs from decodeInto on " +
               std::to_string(parity_mismatch) + " shots");
    r.note("ler probe call 0: %llu logical errors, %llu give-ups in %llu "
           "shots (recount agrees: %s); decodeBatch vs decodeInto on %llu "
           "shots: %llu mismatches; output digest %016llx",
           (unsigned long long)errors, (unsigned long long)gave_ups,
           (unsigned long long)kCallShots, counts_ok ? "yes" : "no",
           (unsigned long long)kParityShots,
           (unsigned long long)parity_mismatch, (unsigned long long)digest);
}

} // namespace

void
probeLerEngine(uint64_t seed, RunResult &r)
{
    ExperimentConfig ec;
    ec.distance = kDistance;
    ec.physicalErrorRate = kErrorRate;
    const ExperimentContext ctx(ec);
    const DecoderFactory factory = registryFactory(kDecoder);

    Probes probes(kCalls * kCallShots / kBlock + 1024);
    probes.armed.store(true);
    const DecoderFactory timed = timedFactory(factory, probes);
    uint64_t shots = 0, errors = 0, gave_ups = 0;
    ExperimentResult first;
    const uint64_t t0 = nowNs();
    for (uint64_t i = 0; i < kCalls; i++) {
        ExperimentResult res = runMemoryExperiment(
            ctx, timed, kCallShots, callSeed(seed, i), 1);
        shots += res.logicalErrors.trials;
        errors += res.logicalErrors.successes;
        gave_ups += res.gaveUps;
        if (i == 0)
            first = std::move(res);
    }
    const double wall_ns = static_cast<double>(nowNs() - t0);
    probes.armed.store(false);
    r.attempted += shots;
    checkCallZero(r, ctx, factory, seed, first);

    // The sampler alone, same seeds and counts.
    SampleCost sc;
    for (uint64_t i = 0; i < kCalls; i++) {
        Rng rng = Rng(callSeed(seed, i)).split(0);
        sc.ns += sampleShots(ctx, rng, kCallShots, nullptr, nullptr).ns;
    }

    const SpanTotals tot =
        summarizeSpans(probes.spans.data(), probes.spans.size());
    const double n = static_cast<double>(shots);
    const double e2e_ns = wall_ns / n;
    const double decode_ns =
        tot.totalNs[static_cast<size_t>(SpanName::AstreaDecode)] / n;
    const double sample_ns = static_cast<double>(sc.ns) / n;
    r.note("ler probe: %llu calls of %llu shots at d=%u, p=%g, %s, 1 "
           "thread: %.1f ns/shot = sample %.1f + decode %.1f + other "
           "%.1f; %llu logical errors, %llu give-ups",
           (unsigned long long)kCalls, (unsigned long long)kCallShots,
           kDistance, kErrorRate, kDecoder, e2e_ns, sample_ns, decode_ns,
           e2e_ns - sample_ns - decode_ns, (unsigned long long)errors,
           (unsigned long long)gave_ups);

    const DecoderCounters &dc = probes.counters;
    r.add("ler.shots_per_s", 1e9 / e2e_ns, "shots/s");
    r.add("ler.sample_ns_per_shot", sample_ns, "ns");
    r.add("ler.decode_ns_per_shot", decode_ns, "ns");
    r.add("harness.other_ns_per_shot", e2e_ns - sample_ns - decode_ns, "ns");
    r.add("ler.logical_errors", static_cast<double>(errors), "count");
    r.add("ler.gave_ups", static_cast<double>(gave_ups), "count");
    r.add("astrea_g.pipeline_frac", ratio(dc.gPipeline, dc.gDecodes),
          "ratio");
    r.add("astrea_g.budget_expirations",
          static_cast<double>(dc.gBudgetExpirations), "count");
    r.add("astrea_g.requeues_per_pipeline", ratio(dc.gRequeues, dc.gPipeline),
          "count");
    r.add("astrea_g.lwt_kept_frac",
          ratio(dc.gLwtKept, dc.gLwtKept + dc.gLwtFiltered), "ratio");
}

} // namespace perfbench

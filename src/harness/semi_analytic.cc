#include "harness/semi_analytic.hh"

#include <algorithm>
#include <mutex>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "dem/extractor.hh"

namespace astrea
{

std::vector<SemiAnalyticResult>
estimateLerSemiAnalyticMulti(const ExperimentContext &ctx,
                             const std::vector<DecoderFactory> &factories,
                             const SemiAnalyticConfig &config)
{
    ASTREA_CHECK(!factories.empty(), "no decoders given");
    unsigned threads = config.threads ? config.threads
                                      : defaultWorkerCount();
    // Every site outcome's symptoms, once per call; a shot's symptoms
    // are the XOR of its chosen outcomes' rows.
    const FaultSymptomTable table = buildFaultSymptomTable(ctx.circuit());
    const uint64_t n_sites = table.sites.size();
    const double p = ctx.config().physicalErrorRate;
    const uint64_t max_shots =
        config.maxShotsPerK ? config.maxShotsPerK : config.shotsPerK;
    const size_t n_dec = factories.size();

    std::vector<SemiAnalyticResult> results(n_dec);
    for (auto &r : results) {
        r.faultSites = n_sites;
        r.failureProb.assign(config.maxFaults + 1, 0.0);
        r.occurrenceProb.assign(config.maxFaults + 1, 0.0);
        r.shotsUsed.assign(config.maxFaults + 1, 0);
        r.failuresSeen.assign(config.maxFaults + 1, 0);
    }

    double cum = 0.0;
    for (uint32_t k = 0; k <= config.maxFaults; k++) {
        double po = binomialPmf(n_sites, p, k);
        for (auto &r : results)
            r.occurrenceProb[k] = po;
        cum += po;
    }
    for (auto &r : results)
        r.tailMass = std::max(0.0, 1.0 - cum);

    Rng root(config.seed);

    // Run `shots` trials with exactly k injected faults; adds each
    // decoder's failures into `failures` (size n_dec).
    auto run_chunk = [&](uint32_t k, uint64_t chunk_id, uint64_t shots,
                         std::vector<uint64_t> &failures) {
        std::mutex merge_mutex;
        parallelFor(shots, threads,
                    [&](unsigned worker, uint64_t begin, uint64_t end) {
            Rng rng = root.split(k * 131 + chunk_id * 7919 + worker);
            std::vector<std::unique_ptr<Decoder>> decoders;
            decoders.reserve(n_dec);
            for (const auto &f : factories)
                decoders.push_back(f(ctx));
            BitVec dets(ctx.circuit().numDetectors());
            std::vector<uint32_t> defects;
            std::vector<uint64_t> chosen;
            std::vector<uint64_t> local_failures(n_dec, 0);

            for (uint64_t s = begin; s < end; s++) {
                // Choose k distinct sites uniformly (rejection; k is
                // tiny compared to the number of sites).
                chosen.clear();
                while (chosen.size() < k) {
                    uint64_t c = rng.uniformInt(n_sites);
                    if (std::find(chosen.begin(), chosen.end(), c) ==
                        chosen.end()) {
                        chosen.push_back(c);
                    }
                }
                std::sort(chosen.begin(), chosen.end());

                // One uniform outcome per chosen site, drawn in site
                // order; X and Z errors have one outcome and draw
                // nothing.
                dets.clear();
                uint64_t actual = 0;
                for (auto c : chosen) {
                    const uint32_t outcomes =
                        faultOutcomeCount(table.sites[c].type);
                    const uint64_t row =
                        table.siteRow[c] +
                        (outcomes > 1 ? rng.uniformInt(outcomes) : 0);
                    for (uint32_t d : table.rowDetectors(row))
                        dets.flip(d);
                    actual ^= table.observables[row];
                }
                dets.onesIndicesInto(defects);

                for (size_t di = 0; di < n_dec; di++) {
                    DecodeResult dr = decoders[di]->decode(defects);
                    if (dr.obsMask != actual)
                        local_failures[di]++;
                }
            }

            std::lock_guard<std::mutex> lock(merge_mutex);
            for (size_t di = 0; di < n_dec; di++)
                failures[di] += local_failures[di];
        });
    };

    for (uint32_t k = 1; k <= config.maxFaults; k++) {
        // Skip fault counts whose occurrence probability cannot move
        // the estimate (saves most of the runtime at small p).
        if (results[0].occurrenceProb[k] <= 0.0)
            continue;

        uint64_t shots_done = 0;
        uint64_t chunk_id = 0;
        std::vector<uint64_t> failures(n_dec, 0);
        while (shots_done < max_shots) {
            uint64_t chunk =
                std::min(config.shotsPerK, max_shots - shots_done);
            run_chunk(k, chunk_id++, chunk, failures);
            shots_done += chunk;
            if (config.targetFailures == 0)
                break;
            uint64_t min_failures = ~0ull;
            for (auto f : failures)
                min_failures = std::min(min_failures, f);
            if (min_failures >= config.targetFailures)
                break;
        }

        for (size_t di = 0; di < n_dec; di++) {
            results[di].shotsUsed[k] = shots_done;
            results[di].failuresSeen[k] = failures[di];
            results[di].failureProb[k] =
                static_cast<double>(failures[di]) /
                static_cast<double>(shots_done);
        }
    }

    for (auto &r : results) {
        r.ler = 0.0;
        for (uint32_t k = 1; k <= config.maxFaults; k++)
            r.ler += r.occurrenceProb[k] * r.failureProb[k];
    }
    return results;
}

SemiAnalyticResult
estimateLerSemiAnalytic(const ExperimentContext &ctx,
                        const DecoderFactory &factory,
                        const SemiAnalyticConfig &config)
{
    return estimateLerSemiAnalyticMulti(ctx, {factory}, config)[0];
}

} // namespace astrea

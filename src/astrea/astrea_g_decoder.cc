#include "astrea/astrea_g_decoder.hh"

#include <algorithm>
#include <cmath>

#include "astrea/lwt_tile.hh"
#include "astrea/matching_tables.hh"
#include "common/logging.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/telemetry.hh"

namespace astrea
{

namespace
{

/** One pre-matching flowing through the pipeline. */
struct Prematch
{
    uint64_t mask = 0;        ///< Matched node bits.
    WeightSum weight = 0;     ///< Cumulative quantized weight (s).
    uint64_t obsMask = 0;
    uint32_t matchedCount = 0; ///< Matched bits (b).
    /** Next candidate row to fetch for this pre-matching's extension
     *  bit (continuation cursor; see AstreaGConfig::
     *  requeueContinuations). */
    uint32_t nextCandidate = 0;
    /** Committed pairs, tracked only under recordMatching (empty —
     *  and cheap to copy — otherwise). */
    std::vector<std::pair<int, int>> pairs;
};

/**
 * Priority-queue ordering by score s/b, compared cross-multiplied so
 * no division is needed (matching the hardware's comparator).
 */
bool
scoreLess(const Prematch &a, const Prematch &b)
{
    uint64_t lhs = static_cast<uint64_t>(a.weight) * b.matchedCount;
    uint64_t rhs = static_cast<uint64_t>(b.weight) * a.matchedCount;
    if (lhs != rhs)
        return lhs < rhs;
    // Tie-break: prefer deeper pre-matchings, then lighter ones.
    if (a.matchedCount != b.matchedCount)
        return a.matchedCount > b.matchedCount;
    return a.weight < b.weight;
}

/** Fixed-capacity priority queue modeled as a small sorted buffer. */
class PrematchQueue
{
  public:
    PrematchQueue() = default;
    explicit PrematchQueue(uint32_t capacity) : capacity_(capacity) {}

    /** Empty the queue and (re)program its capacity, keeping the
     *  entry buffer's storage for reuse across decodes. */
    void
    reset(uint32_t capacity)
    {
        capacity_ = capacity;
        entries_.clear();
    }

    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }

    /** Insert; evicts the worst-scored entry when over capacity. */
    void
    push(const Prematch &p)
    {
        entries_.push_back(p);
        if (entries_.size() > capacity_) {
            auto worst = std::max_element(entries_.begin(),
                                          entries_.end(), scoreLess);
            entries_.erase(worst);
        }
    }

    /** Remove and return the best-scored entry. */
    Prematch
    pop()
    {
        auto best = std::min_element(entries_.begin(), entries_.end(),
                                     scoreLess);
        Prematch p = *best;
        entries_.erase(best);
        return p;
    }

  private:
    uint32_t capacity_ = 1;
    std::vector<Prematch> entries_;
};

/** Per-scratch reusable buffers for the matching pipeline. */
struct AstreaGScratch : DecodeScratch::Ext
{
    /** The per-decode dense weight/obs gather. */
    LwtTile tile;
    /** Local Weight Table rows (cleared, not freed, between shots). */
    std::vector<std::vector<std::pair<WeightSum, int>>> lwt;
    /** The F pre-matching priority queues. */
    std::vector<PrematchQueue> queues;
    /** Unmatched node ids for the HW6 tail. */
    std::vector<int> rem;
    /** Pair list of the best complete matching (recordMatching). */
    std::vector<std::pair<int, int>> bestPairs;
    /** Batch shots bound for the exhaustive delegate's wide path. */
    std::vector<uint32_t> wideShots;
};

} // namespace

double
estimateLogicalErrorRate(uint32_t distance, double p)
{
    // Sub-threshold scaling with p_th ~ 5.7e-3 under this circuit-
    // level noise model; A fitted to the measured d = 3..7 LERs.
    const double p_th = 5.7e-3;
    double exponent = static_cast<double>(distance + 1) / 2.0;
    return 0.03 * std::pow(p / p_th, exponent);
}

double
defaultWeightThreshold(uint32_t distance, double p)
{
    double ler = estimateLogicalErrorRate(distance, p);
    double wth = -std::log10(0.01 * ler);
    return std::clamp(wth, 4.0, 24.0);
}

AstreaGDecoder::AstreaGDecoder(const GlobalWeightTable &gwt,
                               AstreaGConfig config)
    : gwt_(gwt), config_(config),
      exhaustive_(gwt, AstreaConfig{config.exhaustiveMaxHw})
{
    ASTREA_CHECK(config_.fetchWidth >= 1 && config_.queueCapacity >= 1,
                 "invalid Astrea-G configuration");
    if (config_.weightThresholdDecades <= 0.0) {
        // Unresolved "auto" threshold: fall back to the paper's d = 7,
        // p = 1e-3 setting (use astreaGFactory for regime-aware
        // resolution).
        config_.weightThresholdDecades = 7.0;
    }
}

void
AstreaGDecoder::describeConfig(telemetry::JsonWriter &w) const
{
    w.kv("fetch_width", uint64_t{config_.fetchWidth});
    w.kv("queue_capacity", uint64_t{config_.queueCapacity});
    w.kv("weight_threshold_decades", config_.weightThresholdDecades);
    w.kv("cycle_budget", config_.cycleBudget);
    w.kv("exhaustive_max_hw", uint64_t{config_.exhaustiveMaxHw});
    w.kv("max_defects", uint64_t{config_.maxDefects});
    w.kv("requeue_continuations", config_.requeueContinuations);
}

std::vector<uint32_t>
AstreaGDecoder::survivingPairCounts(
    const std::vector<uint32_t> &defects) const
{
    const WeightSum wth =
        decadesToQuantized(config_.weightThresholdDecades);
    std::vector<uint32_t> counts(defects.size(), 0);
    for (size_t i = 0; i < defects.size(); i++) {
        for (size_t j = 0; j < defects.size(); j++) {
            if (i == j)
                continue;
            if (gwt_.effectiveWeight(defects[i], defects[j]) <= wth)
                counts[i]++;
        }
    }
    return counts;
}

void
AstreaGDecoder::decodeInto(std::span<const uint32_t> defects,
                           DecodeResult &out, DecodeScratch &scratch)
{
    stats_.decodes++;
    ASTREA_COUNTER_INC("astrea_g.decodes");
    const uint32_t w = static_cast<uint32_t>(defects.size());
    if (w <= config_.exhaustiveMaxHw) {
        // The exhaustive delegate keeps its own DecodeScratch::Ext
        // slot in the same scratch, so this path stays allocation-free.
        exhaustive_.decodeInto(defects, out, scratch);
        return;
    }
    out.reset();
    if (w > config_.maxDefects) {
        stats_.gaveUps++;
        ASTREA_COUNTER_INC("astrea_g.gave_ups");
        ASTREA_HIST_ADD("astrea_g.give_up_hw", w);
        out.gaveUp = true;
        return;
    }
    stats_.pipelineDecodes++;
    ASTREA_COUNTER_INC("astrea_g.pipeline_decodes");
    decodePipeline(defects, out, scratch);
}

void
AstreaGDecoder::decodeBatch(const SyndromeBatch &batch,
                            std::vector<DecodeResult> &results,
                            DecodeScratch &scratch)
{
    if (results.size() < batch.size())
        results.resize(batch.size());
    AstreaGScratch &s = scratch.ext<AstreaGScratch>();
    s.wideShots.clear();
    for (size_t i = 0; i < batch.size(); i++) {
        if (batch.hw(i) <= config_.exhaustiveMaxHw) {
            s.wideShots.push_back(static_cast<uint32_t>(i));
            continue;
        }
        telemetry::traceShotBegin(static_cast<uint32_t>(i));
        decodeInto(batch.at(i), results[i], scratch);
    }
    if (s.wideShots.empty())
        return;
    // The bookkeeping decodeInto() performs before delegating, in
    // bulk; the delegate's own counters advance inside the wide path.
    stats_.decodes += s.wideShots.size();
    ASTREA_COUNTER_ADD("astrea_g.decodes",
                       static_cast<uint64_t>(s.wideShots.size()));
    exhaustive_.decodeShotsWide(batch, s.wideShots, results, scratch);
}

void
AstreaGDecoder::decodePipeline(std::span<const uint32_t> defects,
                               DecodeResult &result,
                               DecodeScratch &scratch)
{
    const uint32_t w = static_cast<uint32_t>(defects.size());
    const uint32_t F = config_.fetchWidth;

    // Hardware-counter attribution, sampled one decode in
    // ASTREA_PERF_STAGE_STRIDE (see perf_counters.hh).
    const bool psample = telemetry::perfSampleThisDecode();

    // One dense gather of the defect submatrix: effective pair weights
    // with the boundary column fetched once per defect (not once per
    // pair probe), plus the virtual boundary node for odd HW.
    AstreaGScratch &s = scratch.ext<AstreaGScratch>();
    {
        telemetry::PerfSection sec(telemetry::PerfStage::Gather, 1,
                                   psample);
        s.tile.build(gwt_, defects, /*effective_weights=*/true);
    }
    const int m = s.tile.nodes();
    const int virt = s.tile.virtualNode();

    auto weight = [&](int i, int j) -> WeightSum {
        return static_cast<WeightSum>(s.tile.weightAt(i, j));
    };
    auto obs = [&](int i, int j) -> uint64_t {
        return s.tile.obsAt(i, j);
    };

    // Local Weight Table: per node, the candidate pairs surviving the
    // Wth filter, sorted lightest first.
    const WeightSum wth =
        decadesToQuantized(config_.weightThresholdDecades);
    auto &lwt = s.lwt;
    if (lwt.size() < static_cast<size_t>(m))
        lwt.resize(static_cast<size_t>(m));
    for (int i = 0; i < m; i++)
        lwt[i].clear();
    uint64_t pairs_kept = 0, pairs_filtered = 0;
    {
        // Still the gather stage; shots = 0 so the decode itself is
        // only counted once (by the tile.build section above).
        telemetry::PerfSection sec(telemetry::PerfStage::Gather, 0,
                                   psample);
        for (int i = 0; i < m; i++) {
            for (int j = 0; j < m; j++) {
                if (i == j)
                    continue;
                WeightSum pw = weight(i, j);
                if (pw <= wth)
                    lwt[i].push_back({pw, j});
                else
                    pairs_filtered++;
            }
            pairs_kept += lwt[i].size();
            std::sort(lwt[i].begin(), lwt[i].end());
        }
    }
    stats_.lwtPairsKept += pairs_kept;
    stats_.lwtPairsFiltered += pairs_filtered;
    ASTREA_COUNTER_ADD("astrea_g.lwt_pairs_kept", pairs_kept);
    ASTREA_COUNTER_ADD("astrea_g.lwt_pairs_filtered", pairs_filtered);

    // The matching pipeline.
    auto &queues = s.queues;
    if (queues.size() < F)
        queues.resize(F);
    for (uint32_t f = 0; f < F; f++)
        queues[f].reset(config_.queueCapacity);
    queues[0].push(Prematch{});

    const uint64_t fixed_cycles = (w + 1) + 3;  // Transfer + fill/drain.
    const uint64_t max_iters = config_.cycleBudget > fixed_cycles
                                   ? config_.cycleBudget - fixed_cycles
                                   : 1;

    WeightSum best_weight = kInfiniteWeightSum;
    uint64_t best_obs = 0;
    bool found = false;
    const bool record_pairs = config_.recordMatching;
    auto &best_pairs = s.bestPairs;
    best_pairs.clear();

    const uint64_t full_mask =
        (m == 64) ? ~0ull : ((1ull << m) - 1);

    uint64_t iterations = 0;
    uint64_t requeues = 0;
    bool any_left = true;
    {
    telemetry::PerfSection msec(telemetry::PerfStage::Matching, 1,
                                psample);
    while (iterations < max_iters && any_left) {
        iterations++;
        any_left = false;
        for (uint32_t f = 0; f < F; f++) {
            if (queues[f].empty())
                continue;
            Prematch st = queues[f].pop();

            // Fetch: lowest-index unmatched defect.
            uint64_t unmatched = full_mask & ~st.mask;
            ASTREA_CHECK(unmatched != 0, "popped a complete pre-matching");
            int i = __builtin_ctzll(unmatched);

            // Sort + Commit: walk this defect's candidates lightest
            // first, committing up to F feasible extensions.
            uint32_t committed = 0;
            uint32_t cand = st.nextCandidate;
            for (; cand < lwt[i].size() && committed < F; cand++) {
                auto [pw, j] = lwt[i][cand];
                if (st.mask & (1ull << j))
                    continue;
                Prematch ns;
                ns.mask = st.mask | (1ull << i) | (1ull << j);
                ns.weight = addWeights(st.weight, pw);
                ns.obsMask = st.obsMask ^ obs(i, j);
                ns.matchedCount = st.matchedCount + 2;
                if (record_pairs) {
                    ns.pairs = st.pairs;
                    ns.pairs.push_back({i, j});
                }

                int remaining = m - static_cast<int>(ns.matchedCount);
                if (remaining == 6) {
                    // Finish exhaustively: one flat kernel pass over
                    // the 15-row table on a 6x6 sub-tile gathered from
                    // the LWT tile (the HW6 unit's schedule).
                    auto &rem = s.rem;
                    rem.clear();
                    uint64_t um = full_mask & ~ns.mask;
                    while (um) {
                        rem.push_back(__builtin_ctzll(um));
                        um &= um - 1;
                    }
                    stats_.hw6Invocations++;
                    ASTREA_COUNTER_INC("astrea_g.hw6_invocations");
                    const MatchingTable &table6 =
                        MatchingTable::forNodes(6);
                    int32_t sub[6 * 6];
                    for (int a = 0; a < 36; a++)
                        sub[a] = static_cast<int32_t>(kInfiniteTileWeight);
                    for (int a = 0; a < 6; a++)
                        for (int b = a + 1; b < 6; b++)
                            sub[a * 6 + b] = s.tile.weightAt(rem[a], rem[b]);
                    const KernelMatch tkm = matchTile16(table6, sub, kernel_);
                    WeightSum total = addWeights(
                        ns.weight, LwtTile::toWeightSum(tkm.weight));
                    if (total < best_weight) {
                        best_weight = total;
                        uint64_t o = ns.obsMask;
                        for (int k = 0; k < 3; k++) {
                            auto [a, b] = table6.pairAt(tkm.row, k);
                            o ^= obs(rem[a], rem[b]);
                        }
                        best_obs = o;
                        found = true;
                        if (record_pairs) {
                            best_pairs = ns.pairs;
                            for (int k = 0; k < 3; k++) {
                                auto [a, b] =
                                    table6.pairAt(tkm.row, k);
                                best_pairs.push_back(
                                    {rem[a], rem[b]});
                            }
                        }
                    }
                } else {
                    queues[committed % F].push(ns);
                }
                committed++;
            }
            // Continuation: the pre-matching still has unexplored
            // candidates; re-queue it with the cursor advanced so the
            // search keeps widening until the queues or the budget
            // run out (this is what keeps the paper's pipeline busy
            // for hundreds of cycles on HHW syndromes).
            if (config_.requeueContinuations &&
                cand < lwt[i].size()) {
                Prematch cont = st;
                cont.nextCandidate = cand;
                queues[f].push(cont);
                requeues++;
            }
        }
        size_t occupancy = 0;
        for (uint32_t f = 0; f < F; f++) {
            occupancy += queues[f].size();
            if (!queues[f].empty())
                any_left = true;
        }
        stats_.maxQueueOccupancy =
            std::max<uint64_t>(stats_.maxQueueOccupancy, occupancy);
    }
    }

    telemetry::PerfSection vsec(telemetry::PerfStage::Verdict, 1,
                                psample);
    if (any_left) {
        stats_.budgetExpirations++;
        ASTREA_COUNTER_INC("astrea_g.budget_expirations");
    } else {
        stats_.exhaustedSearches++;
        ASTREA_COUNTER_INC("astrea_g.exhausted_searches");
    }
    stats_.requeues += requeues;
    ASTREA_COUNTER_ADD("astrea_g.requeues", requeues);
    ASTREA_GAUGE_MAX("astrea_g.max_queue_occupancy",
                     static_cast<int64_t>(stats_.maxQueueOccupancy));
    ASTREA_HIST_ADD("astrea_g.pipeline_iterations",
                    static_cast<size_t>(iterations));

    result.cycles = fixed_cycles + iterations;
    result.latencyNs = cyclesToNs(result.cycles);
    if (!found) {
        stats_.gaveUps++;
        ASTREA_COUNTER_INC("astrea_g.gave_ups");
        ASTREA_HIST_ADD("astrea_g.give_up_hw", w);
        result.gaveUp = true;
        return;
    }
    result.obsMask = best_obs;
    result.matchingWeight =
        static_cast<double>(best_weight) / kWeightScale;
    if (record_pairs) {
        result.matchedPairs.reserve(best_pairs.size());
        for (auto [i, j] : best_pairs) {
            // Same convention as the exhaustive path: the virtual
            // boundary node maps to -1 and sorts second.
            int32_t a = (i == virt) ? -1 : static_cast<int32_t>(i);
            int32_t b = (j == virt) ? -1 : static_cast<int32_t>(j);
            if (a < 0)
                std::swap(a, b);
            result.matchedPairs.push_back({a, b});
        }
    }
}

} // namespace astrea

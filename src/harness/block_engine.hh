/**
 * @file
 * The block engine: the one shot loop behind every sampled result.
 *
 * A run's shots are cut into fixed-size blocks. Block b holds the
 * global shots [b * B, (b + 1) * B) and draws them in order from
 * Rng(seed).split(b), whichever worker runs it; workers claim blocks
 * on the program's one parallel loop (runBlocks(),
 * common/thread_pool.hh), which also balances their load. So a
 * sampled result depends on the seed alone, and shot g of a seed is
 * the same syndrome in every loop that samples the error model:
 * runMemoryExperiment(), the decode service's workers, the latency and
 * HW samplers and recordTrace(). Per-block partials whose merge order
 * would show in a result (a floating-point mean) merge in block order.
 */

#ifndef ASTREA_HARNESS_BLOCK_ENGINE_HH
#define ASTREA_HARNESS_BLOCK_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "audit/auditor.hh"
#include "common/thread_pool.hh"
#include "harness/memory_experiment.hh"
#include "telemetry/decode_trace.hh"

namespace astrea
{

/**
 * Shots per block of a run that samples the error model. Block 0 is
 * then the whole of a run of up to 16,384 shots, so a one-thread run
 * of that size draws Rng(seed).split(0) in order, which perfbench's LER
 * probe recounts; and a block's fixed costs vanish against its shots.
 */
inline constexpr uint64_t kBlockShots = 16384;

/** Shots per Decoder::decodeBatch call; a block is a whole number. */
inline constexpr uint64_t kDecodeBatchShots = 64;

/** Blocks of block_shots shots that cover `shots` shots. */
constexpr uint64_t
blockCount(uint64_t shots, uint64_t block_shots)
{
    return shots / block_shots + (shots % block_shots != 0 ? 1 : 0);
}

/** What the tracer and the auditor see of one decoded shot. */
inline telemetry::TraceShotOutcome
shotOutcome(const DecodeResult &dr, uint64_t actual_obs,
            std::span<const uint32_t> defects)
{
    telemetry::TraceShotOutcome out;
    out.latencyNs = dr.latencyNs;
    out.cycles = dr.cycles;
    out.matchingWeight = dr.matchingWeight;
    out.obsMask = dr.obsMask;
    out.actualObs = actual_obs;
    out.gaveUp = dr.gaveUp;
    out.logicalError = dr.obsMask != actual_obs;
    out.defects = defects.data();
    out.hw = static_cast<uint32_t>(defects.size());
    return out;
}

/**
 * Merges per-block partials into a total in block order, whatever
 * order the blocks finish in; a partial that finishes early waits for
 * those before it. Thread-safe.
 */
template <typename Partial>
class BlockOrderMerge
{
  public:
    explicit BlockOrderMerge(Partial &total) : total_(total) {}

    void
    add(uint64_t block, Partial part)
    {
        std::lock_guard<std::mutex> lock(mu_);
        pending_.emplace(block, std::move(part));
        for (auto it = pending_.begin();
             it != pending_.end() && it->first == next_;
             it = pending_.erase(it), next_++)
            total_.merge(it->second);
    }

  private:
    std::mutex mu_;
    Partial &total_;
    std::map<uint64_t, Partial> pending_;
    uint64_t next_ = 0;
};

/**
 * One worker's place in a run's shot stream: its block, the generator
 * drawing that block, and the buffers it samples and decodes in. They
 * grow on the worker's first block; after that it allocates nothing.
 */
class ShotStream
{
  public:
    /** Run of `shots` shots (UINT64_MAX: endless) from `seed`; traces
     *  and audits name this worker `stream`. */
    ShotStream(uint64_t seed, uint64_t shots, uint32_t stream);

    /** Claim the next block from next_block and move to its first
     *  shot; false once the run has no block left. */
    bool nextBlock(std::atomic<uint64_t> &next_block);

    uint64_t block() const { return block_; }

    /** Shots of the block not yet sampled. */
    uint64_t remaining() const { return end_ - next_; }

    /** Sample the block's next n shots; sink(shot, defects, actual_obs)
     *  sees each, shot being its global index. */
    template <typename Sink>
    void
    sample(const ExperimentContext &ctx, uint64_t n, Sink &&sink)
    {
        for (uint64_t m; n > 0; n -= m) {
            m = std::min(n, kDecodeBatchShots);
            const uint64_t first = sampleBatch(ctx, m);
            for (uint64_t i = 0; i < m; i++)
                sink(first + i, batch_.at(i), actuals_[i]);
        }
    }

    /**
     * Sample the block's next n shots and decode them in decodeBatch
     * calls under the Batch PerfSection, the tracer armed with the run
     * seed at each call's global shot index (so a trace id does not
     * depend on the thread count). Nontrivial shots are offered to the
     * auditor (null: none); then sink(shot, outcome) sees each shot,
     * and its trace records the outcome as the sink leaves it.
     */
    template <typename Sink>
    void
    decode(const ExperimentContext &ctx, uint64_t n, Decoder &decoder,
           const char *decoder_name, AccuracyAuditor *auditor,
           Sink &&sink)
    {
        telemetry::DecodeTracer &tracer = telemetry::decodeTracer();
        for (uint64_t m; n > 0; n -= m) {
            m = std::min(n, kDecodeBatchShots);
            const uint64_t first = sampleBatch(ctx, m);
            tracer.beginBatch(stream_, first, decoder_name, seed_);
            {
                telemetry::PerfSection sec(telemetry::PerfStage::Batch, m);
                decoder.decodeBatch(batch_, results_, scratch_);
            }
            for (uint32_t i = 0; i < m; i++) {
                const DecodeResult &dr = results_[i];
                telemetry::TraceShotOutcome out =
                    shotOutcome(dr, actuals_[i], batch_.at(i));
                if (auditor != nullptr && out.hw > 0) {
                    out.audited = auditor->offer(
                        first + i, stream_, batch_.at(i), dr,
                        out.actualObs,
                        tracer.active() ? tracer.shotId(i) : 0);
                }
                sink(first + i, out);
                if (tracer.active())
                    tracer.finishShot(i, out);
            }
            tracer.endBatch();
        }
    }

  private:
    /** Sample the next n shots into batch_ and actuals_; returns the
     *  global index of the first. */
    uint64_t sampleBatch(const ExperimentContext &ctx, uint64_t n);

    const uint64_t seed_;
    const uint64_t shots_;
    const uint32_t stream_;
    Rng rng_{0};
    uint64_t block_ = 0;
    uint64_t next_ = 0;  ///< Global index of the block's next shot.
    uint64_t end_ = 0;   ///< One past the block's last shot.
    BitVec dets_, obs_;
    std::vector<uint32_t> obsIndices_;
    SyndromeBatch batch_;
    std::vector<uint64_t> actuals_;
    std::vector<DecodeResult> results_;
    DecodeScratch scratch_;
};

} // namespace astrea

#endif // ASTREA_HARNESS_BLOCK_ENGINE_HH

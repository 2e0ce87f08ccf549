/**
 * @file
 * Common decoder interface.
 *
 * A decoder receives the defects of one syndrome vector — the indices
 * of the flipped detectors across the d decoding rounds — and predicts
 * which logical observables the underlying physical errors flipped.
 * Decoding succeeds when the prediction matches the actual observable
 * flip of the shot; a mismatch is a logical error.
 *
 * Decoders also report a latency estimate per decode: hardware designs
 * (Astrea, Astrea-G, LUT) report modeled FPGA cycles at 250 MHz, while
 * software baselines (MWPM/Blossom) report measured wall-clock time.
 *
 * The hot path is batch-oriented and allocation-free: decodeInto()
 * writes into a caller-owned DecodeResult and draws every work buffer
 * from a caller-owned DecodeScratch, so a steady-state shot loop that
 * reuses both performs zero heap allocations (verified for the
 * hardware decoders by tests/alloc_test.cc). decode() remains as a
 * convenience shim that owns its result and scratch per call;
 * decodeBatch() amortizes virtual dispatch over a SyndromeBatch.
 */

#ifndef ASTREA_DECODERS_DECODER_HH
#define ASTREA_DECODERS_DECODER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hh"

namespace astrea
{

/** FPGA clock assumed by all hardware latency models (paper Sec. 5.4). */
constexpr double kFpgaClockGHz = 0.25;

/** Convert modeled hardware cycles to nanoseconds at 250 MHz. */
inline double
cyclesToNs(uint64_t cycles)
{
    return static_cast<double>(cycles) / kFpgaClockGHz;
}

/** Outcome of decoding one syndrome vector. */
struct DecodeResult
{
    /** Predicted logical-observable flips. */
    uint64_t obsMask = 0;
    /** True if the decoder could not process the syndrome (e.g. Astrea
     *  on Hamming weight > 10); obsMask is 0 in that case. */
    bool gaveUp = false;
    /** Latency estimate in nanoseconds (modeled or measured). */
    double latencyNs = 0.0;
    /** Modeled hardware cycles (0 for software decoders). */
    uint64_t cycles = 0;
    /** Total weight of the chosen matching, in decades; 0 if none. */
    double matchingWeight = 0.0;
    /**
     * The matching itself, as indices into the decode() defects
     * argument; -1 denotes the boundary. Filled by decoders that
     * expose their pairings (MWPM, Astrea, greedy) — consumers such as
     * the sliding-window streaming decoder need pair-level commits,
     * not just the aggregate observable flip. Pairs resolved "through
     * the boundary" are still reported as (i, j).
     */
    std::vector<std::pair<int32_t, int32_t>> matchedPairs;

    /** Clear for reuse, keeping matchedPairs' capacity. */
    void
    reset()
    {
        obsMask = 0;
        gaveUp = false;
        latencyNs = 0.0;
        cycles = 0;
        matchingWeight = 0.0;
        matchedPairs.clear();
    }
};

/**
 * n result slots for decodeBatch(). A slot keeps its pair buffer from
 * batch to batch; reserved for any matching of up to 32 pairs, a wide
 * shot landing on a slot that has only held narrow ones does not
 * allocate.
 */
std::vector<DecodeResult> makeResultSlots(size_t n);

/**
 * Caller-owned reusable work buffers for decodeInto().
 *
 * One scratch serves one decoder instance at a time (no sharing across
 * threads); reusing the same scratch across calls is what makes the
 * steady state allocation-free. Decoder-specific state lives in typed
 * extension slots: a decoder defines a private struct deriving from
 * DecodeScratch::Ext and fetches it with ext<T>(), which creates the
 * slot on first use and returns the same instance afterwards. Slots
 * are keyed by type, so a delegating decoder (Astrea-G embedding
 * Astrea) and its delegate coexist in one scratch without thrashing.
 * Wrapper decoders (the sliding window) use inner() for the scratch
 * their inner decoder runs against.
 */
class DecodeScratch
{
  public:
    /** Base of every decoder-specific extension slot. */
    struct Ext
    {
        virtual ~Ext() = default;
    };

    DecodeScratch() = default;
    DecodeScratch(const DecodeScratch &) = delete;
    DecodeScratch &operator=(const DecodeScratch &) = delete;

    /** The slot of type T, created on first use. */
    template <class T>
    T &
    ext()
    {
        for (auto &e : exts_) {
            if (T *p = dynamic_cast<T *>(e.get()))
                return *p;
        }
        exts_.push_back(std::make_unique<T>());
        return static_cast<T &>(*exts_.back());
    }

    /** Nested scratch for wrapper decoders' inner decoder. */
    DecodeScratch &inner();

    /** Shared defect staging buffer (LUT keys, window assembly). */
    std::vector<uint32_t> defects;

  private:
    std::vector<std::unique_ptr<Ext>> exts_;
    std::unique_ptr<DecodeScratch> inner_;
};

/**
 * A flattened batch of syndromes: all defect lists concatenated, with
 * an offsets table. clear() + add() reuse capacity, so staging shots
 * through a long-lived batch allocates nothing at steady state.
 */
class SyndromeBatch
{
  public:
    SyndromeBatch() { offsets_.push_back(0); }

    void
    clear()
    {
        defects_.clear();
        offsets_.clear();
        offsets_.push_back(0);
    }

    /** Append one shot's defect list. */
    void
    add(std::span<const uint32_t> defects)
    {
        defects_.insert(defects_.end(), defects.begin(), defects.end());
        offsets_.push_back(defects_.size());
    }

    /** Number of shots in the batch. */
    size_t size() const { return offsets_.size() - 1; }

    bool empty() const { return size() == 0; }

    /** Shot i's defect list. */
    std::span<const uint32_t>
    at(size_t i) const
    {
        return {defects_.data() + offsets_[i],
                offsets_[i + 1] - offsets_[i]};
    }

    /** Shot i's Hamming weight. */
    size_t hw(size_t i) const { return offsets_[i + 1] - offsets_[i]; }

  private:
    std::vector<uint32_t> defects_;
    std::vector<size_t> offsets_;
};

/** Abstract decoder. */
class Decoder
{
  public:
    virtual ~Decoder() = default;

    /**
     * Decode one syndrome vector into a caller-owned result.
     *
     * @param defects Indices of flipped detectors, strictly increasing.
     * @param out Overwritten with the outcome (reset() first).
     * @param scratch Reusable work buffers; pass the same scratch on
     *        every call to keep the steady state allocation-free.
     */
    virtual void decodeInto(std::span<const uint32_t> defects,
                            DecodeResult &out,
                            DecodeScratch &scratch) = 0;

    /**
     * Decode every shot of a batch. results is resized up (never down)
     * to batch.size(); entry i holds shot i's outcome. The default
     * implementation loops decodeInto(); decoders with cross-shot
     * amortization opportunities may override.
     */
    virtual void decodeBatch(const SyndromeBatch &batch,
                             std::vector<DecodeResult> &results,
                             DecodeScratch &scratch);

    /**
     * Single-shot convenience shim over decodeInto() that owns its
     * result and scratch. Allocates per call; hot loops should hold a
     * DecodeResult + DecodeScratch and call decodeInto() directly.
     */
    DecodeResult decode(const std::vector<uint32_t> &defects);

    virtual std::string name() const = 0;

    /**
     * Emit the decoder's configuration as key/value pairs into an
     * already-open JSON object. The trace store embeds this in
     * trace details and capture files so `astrea_cli replay` can
     * reconstruct an identically-configured decoder through the
     * DecoderRegistry; decoders whose behavior is fully determined by
     * their name may emit nothing.
     */
    virtual void
    describeConfig(telemetry::JsonWriter &w) const
    {
        (void)w;
    }
};

} // namespace astrea

#endif // ASTREA_DECODERS_DECODER_HH

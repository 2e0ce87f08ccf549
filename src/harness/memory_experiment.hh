/**
 * @file
 * Memory-experiment driver (paper Sec. 3.4).
 *
 * One ExperimentContext owns everything derived from a (distance,
 * rounds, basis, p) configuration: the layout, the noisy circuit, the
 * extracted error model, the decoding graph, the Global Weight Table
 * and the sparse shot sampler. Experiments then run shot loops against
 * any decoder: sample detection events, decode the defect list, and
 * compare the predicted logical flip with the actual one. The logical
 * error rate is the fraction of shots where they disagree.
 */

#ifndef ASTREA_HARNESS_MEMORY_EXPERIMENT_HH
#define ASTREA_HARNESS_MEMORY_EXPERIMENT_HH

#include <functional>
#include <memory>

#include "astrea/astrea_decoder.hh"
#include "astrea/astrea_g_decoder.hh"
#include "circuit/circuit.hh"
#include "common/stats.hh"
#include "decoders/decoder.hh"
#include "decoders/registry.hh"
#include "decoders/union_find_decoder.hh"
#include "dem/error_model.hh"
#include "graph/decoding_graph.hh"
#include "graph/weight_table.hh"
#include "harness/latency_stats.hh"
#include "sim/dem_sampler.hh"
#include "stream/window_decoder.hh"
#include "surface_code/layout.hh"
#include "surface_code/memory_circuit.hh"

namespace astrea
{

/** Static parameters of one experiment configuration. */
struct ExperimentConfig
{
    uint32_t distance = 3;
    uint32_t rounds = 0;  ///< 0 = distance rounds (the paper's setting).
    Basis basis = Basis::Z;
    double physicalErrorRate = 1e-4;
    /**
     * Non-uniform noise (paper Sec. 8.2): per-qubit error rates drawn
     * log-uniformly within a factor of (1 + driftSpread) of the base
     * rate. 0 keeps the uniform model. The GWT built by this context
     * is always matched to the drifted rates; the drift ablation bench
     * decodes these shots against a stale uniform GWT for contrast.
     */
    double driftSpread = 0.0;
    uint64_t driftSeed = 12345;
    /** CX-layer ordering (ablation; see CxSchedule). */
    CxSchedule cxSchedule = CxSchedule::Standard;
};

/** Shared immutable state for one configuration. */
class ExperimentContext
{
  public:
    explicit ExperimentContext(const ExperimentConfig &config);

    const ExperimentConfig &config() const { return config_; }
    const SurfaceCodeLayout &layout() const { return *layout_; }
    const Circuit &circuit() const { return *circuit_; }
    const ErrorModel &errorModel() const { return *model_; }
    const DecodingGraph &graph() const { return *graph_; }
    const GlobalWeightTable &gwt() const { return *gwt_; }
    const DemSampler &sampler() const { return *sampler_; }

    /** Non-null when the configuration requested drifted noise. */
    const NoiseMap *noiseMap() const { return noiseMap_.get(); }

  private:
    ExperimentConfig config_;
    std::unique_ptr<NoiseMap> noiseMap_;
    std::unique_ptr<SurfaceCodeLayout> layout_;
    std::unique_ptr<Circuit> circuit_;
    std::unique_ptr<ErrorModel> model_;
    std::unique_ptr<DecodingGraph> graph_;
    std::unique_ptr<GlobalWeightTable> gwt_;
    std::unique_ptr<DemSampler> sampler_;
};

/**
 * Creates a decoder bound to a context. A fresh decoder is created per
 * worker thread, so decoders may keep mutable per-instance state.
 */
using DecoderFactory =
    std::function<std::unique_ptr<Decoder>(const ExperimentContext &)>;

/**
 * Bind a context's pieces (gwt, graph, detector info, rounds,
 * distance, p) into registry options. Per-decoder knob structs keep
 * their defaults; callers override them before DecoderRegistry::make.
 */
DecoderOptions decoderOptionsFor(const ExperimentContext &ctx);

/**
 * A factory that resolves any registry name ("astrea", "mwpm",
 * "windowed-greedy", ...) against the experiment context; fatals on
 * unknown names with the registry's name enumeration.
 */
DecoderFactory registryFactory(std::string name);

// Named factories: thin registry wrappers that pre-set one knob struct.
DecoderFactory mwpmFactory();
DecoderFactory astreaFactory(AstreaConfig config = {});
DecoderFactory astreaGFactory(AstreaGConfig config = {});
DecoderFactory unionFindFactory(UnionFindConfig config = {});
DecoderFactory cliqueFactory();
DecoderFactory lutFactory();
DecoderFactory greedyFactory();

/**
 * Wrap an inner decoder factory in the sliding-window streaming
 * decoder (stream/window_decoder.hh). The inner decoder must report
 * its matching (MWPM, Astrea, greedy).
 */
DecoderFactory windowedFactory(DecoderFactory inner,
                               StreamingConfig config = {});

/**
 * Serialize an ExperimentConfig as a JSON object string. Embedded in
 * trace details and capture files; replayCapture() parses it back.
 */
std::string experimentConfigJson(const ExperimentConfig &config);

/** Serialize a decoder's name plus configuration as a JSON object. */
std::string decoderDescriptionJson(const Decoder &decoder);

/** Aggregated outcome of a shot loop. */
struct ExperimentResult
{
    BinomialEstimate logicalErrors;  ///< successes = logical errors.
    Histogram hammingWeights{64};
    RunningStats latencyNs;            ///< All shots.
    RunningStats latencyNontrivialNs;  ///< Shots with HW > 2.
    /** Bucketed latency over all shots (percentile queries). */
    LatencyHistogram latencyHist{50.0, 100000.0};
    /** Bucketed latency over nontrivial (HW > 2) shots. */
    LatencyHistogram latencyNontrivialHist{50.0, 100000.0};
    uint64_t gaveUps = 0;
    /** Hamming weight at which each give-up happened (Sec. 5 tail). */
    Histogram gaveUpHw{64};

    double ler() const { return logicalErrors.pointEstimate(); }

    void merge(const ExperimentResult &other);
};

/**
 * Run a Monte-Carlo memory experiment.
 *
 * @param ctx Configuration context.
 * @param factory Decoder under test.
 * @param shots Number of shots.
 * @param seed Root RNG seed. The result depends on it alone: shots
 *        are drawn in fixed blocks, each from its own stream of the
 *        seed (harness/block_engine.hh).
 * @param threads Worker count; 0 uses defaultWorkerCount(). It sets
 *        only the speed.
 */
ExperimentResult runMemoryExperiment(const ExperimentContext &ctx,
                                     const DecoderFactory &factory,
                                     uint64_t shots, uint64_t seed,
                                     unsigned threads = 0);

/**
 * Measure a decoder's per-shot latency distribution over sampled
 * syndromes, counting only non-zero syndromes (trivial all-zero shots
 * need no decode and would swamp the histogram). Implemented in
 * latency_stats.cc.
 */
LatencyHistogram measureLatencyDistribution(const ExperimentContext &ctx,
                                            const DecoderFactory &factory,
                                            uint64_t shots, uint64_t seed,
                                            unsigned threads = 0);

} // namespace astrea

#endif // ASTREA_HARNESS_MEMORY_EXPERIMENT_HH

/**
 * @file
 * Stand-alone per-layer measurements for the traced run: the setup
 * constructors timed one by one in the order ExperimentContext calls
 * them, the syndrome codec over a workload's own frames, and the DEM
 * sampler with a workload's own seed and shot count.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "decoders/decoder.hh"
#include "harness/memory_experiment.hh"

namespace perfbench
{

/** Seconds spent in each setup constructor. */
struct SetupBreakdown
{
    double circuitS = 0;  ///< SurfaceCodeLayout + buildMemoryCircuit.
    double demS = 0;      ///< extractErrorModel.
    double graphS = 0;    ///< DecodingGraph.
    double gwtS = 0;      ///< GlobalWeightTable.
    double samplerS = 0;  ///< DemSampler.
    double decoderS = 0;  ///< DecoderRegistry::make.
};

SetupBreakdown timeSetup(const astrea::ExperimentConfig &ec,
                         const std::string &decoder);

/** DemSampler cost and the Hamming weights it produced. */
struct SampleCost
{
    uint64_t ns = 0;
    double hwSum = 0;
    uint64_t hwGt10 = 0;
};

/**
 * Sample `shots` shots from rng into `out` (if non-null) and observed
 * flips into `actuals` (if non-null), timing only the sampler calls.
 */
SampleCost sampleShots(const astrea::ExperimentContext &ctx,
                       astrea::Rng &rng, uint64_t shots,
                       astrea::SyndromeBatch *out,
                       std::vector<uint64_t> *actuals);

/** encodeSyndromeInto / tryDecodeSyndromeInto cost over frames. */
struct CodecCost
{
    double encodeNsPerShot = 0;
    double decodeNsPerShot = 0;
    double bytesPerShot = 0;      ///< Codec payload.
    double wireBytesPerShot = 0;  ///< Syndrome frame + Verdict frame.
    bool roundTripOk = true;
};

/** Round-trip every shot through the Sparse codec (the codec the
 *  fleet client puts on the wire), in passes over the set until at
 *  least 500,000 shots were encoded. The wire size frames each
 *  payload with appendFleetSyndrome and adds an appendFleetVerdict
 *  answer. */
CodecCost timeCodec(const astrea::SyndromeBatch &shots,
                    uint32_t num_detectors);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH

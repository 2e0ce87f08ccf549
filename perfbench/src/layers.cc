#include "layers.hh"

#include <algorithm>

#include "common/bitvec.hh"
#include "compression/syndrome_codec.hh"
#include "dem/extractor.hh"
#include "graph/decoding_graph.hh"
#include "graph/weight_table.hh"
#include "net/fleet_protocol.hh"
#include "sim/dem_sampler.hh"
#include "stats.hh"
#include "surface_code/layout.hh"
#include "surface_code/memory_circuit.hh"

namespace perfbench
{

SetupBreakdown
timeSetup(const astrea::ExperimentConfig &ec, const std::string &decoder)
{
    using namespace astrea;
    SetupBreakdown b;
    auto secs = [](uint64_t t0, uint64_t t1) {
        return static_cast<double>(t1 - t0) * 1e-9;
    };

    uint64_t t0 = nowNs();
    SurfaceCodeLayout layout(ec.distance);
    MemoryExperimentSpec spec;
    spec.distance = ec.distance;
    spec.rounds = ec.rounds;
    spec.basis = ec.basis;
    spec.noise = NoiseModel::uniform(ec.physicalErrorRate);
    spec.cxSchedule = ec.cxSchedule;
    Circuit circuit = buildMemoryCircuit(layout, spec);
    uint64_t t1 = nowNs();
    b.circuitS = secs(t0, t1);

    ErrorModel model = extractErrorModel(circuit);
    uint64_t t2 = nowNs();
    b.demS = secs(t1, t2);

    DecodingGraph graph(model);
    uint64_t t3 = nowNs();
    b.graphS = secs(t2, t3);

    GlobalWeightTable gwt(graph);
    uint64_t t4 = nowNs();
    b.gwtS = secs(t3, t4);

    DemSampler sampler(model);
    uint64_t t5 = nowNs();
    b.samplerS = secs(t4, t5);

    // The options decoderOptionsFor() would bind for this context.
    DecoderOptions opts;
    opts.gwt = &gwt;
    opts.graph = &graph;
    opts.detectorInfo = &circuit.detectorInfo();
    opts.totalRounds = (ec.rounds ? ec.rounds : ec.distance) + 1;
    opts.distance = ec.distance;
    opts.physicalErrorRate = ec.physicalErrorRate;
    auto dec = makeDecoder(decoder, opts);
    b.decoderS = secs(t5, nowNs());
    return b;
}

SampleCost
sampleShots(const astrea::ExperimentContext &ctx, astrea::Rng &rng,
            uint64_t shots, astrea::SyndromeBatch *out,
            std::vector<uint64_t> *actuals)
{
    using namespace astrea;
    SampleCost c;
    BitVec dets(ctx.circuit().numDetectors());
    BitVec obs(ctx.circuit().numObservables());
    std::vector<uint32_t> idx;
    for (uint64_t i = 0; i < shots; i++) {
        const uint64_t t0 = nowNs();
        ctx.sampler().sample(rng, dets, obs);
        c.ns += nowNs() - t0;
        dets.onesIndicesInto(idx);
        c.hwSum += static_cast<double>(idx.size());
        c.hwGt10 += idx.size() > 10 ? 1 : 0;
        if (out != nullptr)
            out->add(idx);
        if (actuals != nullptr) {
            uint64_t mask = 0;
            obs.onesIndicesInto(idx);
            for (uint32_t o : idx)
                mask |= 1ull << o;
            actuals->push_back(mask);
        }
    }
    return c;
}

CodecCost
timeCodec(const astrea::SyndromeBatch &shots, uint32_t num_detectors)
{
    using namespace astrea;
    constexpr uint64_t kMinShots = 500000;
    CodecCost c;
    if (shots.size() == 0)
        return c;
    // Syndromes are staged as bit vectors up front so the timed loops
    // hold only the codec calls.
    std::vector<BitVec> syndromes(shots.size(), BitVec(num_detectors));
    for (size_t i = 0; i < shots.size(); i++) {
        for (uint32_t d : shots.at(i))
            syndromes[i].set(d);
    }
    std::vector<std::vector<uint8_t>> encoded(shots.size());
    std::vector<uint8_t> frames;
    uint64_t bytes = 0;
    uint64_t wire = 0;
    for (size_t i = 0; i < shots.size(); i++) {
        encodeSyndromeInto(syndromes[i], SyndromeCodec::Sparse,
                           encoded[i]);
        bytes += encoded[i].size();
        frames.clear();
        const uint32_t seq = static_cast<uint32_t>(i);
        net::appendFleetSyndrome(frames, 0, seq, 0, encoded[i].data(),
                                 encoded[i].size());
        net::appendFleetVerdict(frames, 0, seq, 0, 0);
        wire += frames.size();
    }
    const double n_shots = static_cast<double>(shots.size());
    c.bytesPerShot = static_cast<double>(bytes) / n_shots;
    c.wireBytesPerShot = static_cast<double>(wire) / n_shots;

    const uint64_t passes =
        (kMinShots + shots.size() - 1) / shots.size();
    std::vector<uint8_t> buf;
    uint64_t t0 = nowNs();
    for (uint64_t p = 0; p < passes; p++) {
        for (const BitVec &s : syndromes)
            encodeSyndromeInto(s, SyndromeCodec::Sparse, buf);
    }
    uint64_t t1 = nowNs();
    BitVec back;
    for (uint64_t p = 0; p < passes; p++) {
        for (const auto &e : encoded) {
            if (!tryDecodeSyndromeInto(e.data(), e.size(), num_detectors,
                                       back))
                c.roundTripOk = false;
        }
    }
    uint64_t t2 = nowNs();
    std::vector<uint32_t> idx;
    for (size_t i = 0; i < shots.size(); i++) {
        const bool ok = tryDecodeSyndromeInto(encoded[i].data(),
                                              encoded[i].size(),
                                              num_detectors, back);
        if (ok)
            back.onesIndicesInto(idx);
        const auto want = shots.at(i);
        if (!ok || !std::equal(idx.begin(), idx.end(), want.begin(),
                               want.end()))
            c.roundTripOk = false;
    }
    const double n = static_cast<double>(passes * shots.size());
    c.encodeNsPerShot = static_cast<double>(t1 - t0) / n;
    c.decodeNsPerShot = static_cast<double>(t2 - t1) / n;
    return c;
}

} // namespace perfbench

/**
 * @file
 * Error-model and semi-analytic estimator pins.
 *
 * The decoding graph, the GWT and DemSampler's RNG use all read the
 * error model mechanism by mechanism, in order, so a change to how the
 * model is built must leave its content and its order unchanged. These
 * tests pin, for memory circuits over d = 3–11, both bases, both CX
 * schedules and drifted noise maps, the mechanism count, the
 * ExtractionStats counts and a digest over every mechanism in order
 * (sorted detectors, observable mask, probability bit pattern). They
 * also pin the semi-analytic estimator's per-k failure counts for a
 * fixed seed, the same at 1, 2 and 4 threads. The values were recorded
 * once and the code must reproduce them exactly.
 *
 * The oracle tests hold the backward sweep's symptom table to forward
 * frame simulation: every row to propagateInjection() of its outcome,
 * and the XOR of k random rows to propagateFaultSet() of those faults.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <ostream>
#include <vector>

#include "dem/extractor.hh"
#include "harness/memory_experiment.hh"
#include "harness/semi_analytic.hh"
#include "sim/frame_sim.hh"
#include "surface_code/noise_map.hh"

namespace astrea
{
namespace
{

/** SplitMix64's finalizer. */
uint64_t
mix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One memory-circuit configuration of the error-model pins. */
struct ModelConfig
{
    uint32_t distance;
    Basis basis;
    CxSchedule schedule;
    double driftSpread;
};

/** The pinned values of one configuration's error model. */
struct ModelPin
{
    size_t mechanisms = 0;
    size_t faultSites = 0;
    size_t outcomesPropagated = 0;
    size_t emptySymptoms = 0;
    size_t oversizeSymptoms = 0;
    uint64_t digest = 0;

    bool operator==(const ModelPin &) const = default;
};

void
PrintTo(const ModelPin &p, std::ostream *os)
{
    *os << "{" << p.mechanisms << ", " << p.faultSites << ", "
        << p.outcomesPropagated << ", " << p.emptySymptoms << ", "
        << p.oversizeSymptoms << ", 0x" << std::hex << p.digest
        << std::dec << "ull}";
}

/** The circuit ExperimentContext builds for a configuration. */
Circuit
circuitFor(const ModelConfig &mc)
{
    SurfaceCodeLayout layout(mc.distance);
    MemoryExperimentSpec spec;
    spec.distance = mc.distance;
    spec.basis = mc.basis;
    spec.noise = NoiseModel::uniform(1e-3);
    spec.cxSchedule = mc.schedule;
    Rng drift_rng(12345);
    const NoiseMap drift = NoiseMap::randomDrift(
        layout.numQubits(), mc.driftSpread, drift_rng);
    if (mc.driftSpread > 0.0)
        spec.noiseMap = &drift;
    return buildMemoryCircuit(layout, spec);
}

ModelPin
pinOf(const ModelConfig &mc)
{
    ExtractionStats stats;
    const ErrorModel model = extractErrorModel(circuitFor(mc), &stats);
    ModelPin pin;
    pin.mechanisms = model.mechanisms().size();
    pin.faultSites = stats.faultSites;
    pin.outcomesPropagated = stats.outcomesPropagated;
    pin.emptySymptoms = stats.emptySymptoms;
    pin.oversizeSymptoms = stats.oversizeSymptoms;
    for (const ErrorMechanism &m : model.mechanisms()) {
        uint64_t h = mix(m.detectors.size());
        for (uint32_t d : m.detectors)
            h = mix(h ^ d);
        h = mix(h ^ m.observables);
        h = mix(h ^ std::bit_cast<uint64_t>(m.probability));
        pin.digest = mix(pin.digest ^ h);
    }
    return pin;
}

TEST(ErrorModelPin, MemoryCircuitsMatchRecordedModels)
{
    constexpr auto Z = Basis::Z;
    constexpr auto X = Basis::X;
    constexpr auto S = CxSchedule::Standard;
    constexpr auto H = CxSchedule::HookAligned;
    const struct
    {
        ModelConfig config;
        ModelPin pin;
    } cases[] = {
        {{3, Z, S, 0.0},
         {55, 156, 1218, 363, 0, 0xbcb72b27fbd0e7fbull}},
        {{3, Z, H, 0.0},
         {55, 156, 1218, 363, 0, 0x9693d3bbcc2fa85bull}},
        {{3, X, S, 0.0},
         {55, 156, 1218, 363, 0, 0x2245111774d04f13ull}},
        {{3, X, H, 0.0},
         {55, 156, 1218, 363, 0, 0x853b2f10d9706cc2ull}},
        {{5, Z, S, 0.0},
         {301, 790, 6640, 1925, 0, 0x40ebf3208c72f7f0ull}},
        {{5, Z, H, 0.0},
         {301, 790, 6640, 1925, 0, 0x7c2a6c33ff03d83cull}},
        {{5, X, S, 0.0},
         {301, 790, 6640, 1925, 0, 0x454d0a899ab98deull}},
        {{5, X, H, 0.0},
         {301, 790, 6640, 1925, 0, 0x996bd32b83f4b52aull}},
        {{7, Z, S, 0.0},
         {883, 2240, 19390, 5551, 0, 0x6eaf2bfa7188d7eaull}},
        {{7, Z, H, 0.0},
         {883, 2240, 19390, 5551, 0, 0xa0a3695bc5047738ull}},
        {{7, X, S, 0.0},
         {883, 2240, 19390, 5551, 0, 0xe1c25191f0a04da4ull}},
        {{7, X, H, 0.0},
         {883, 2240, 19390, 5551, 0, 0x20bf401c16a25c00ull}},
        {{9, Z, S, 0.0},
         {1945, 4842, 42588, 12105, 0, 0xce2888a282474afdull}},
        {{9, Z, H, 0.0},
         {1945, 4842, 42588, 12105, 0, 0x987e6da9a2b8b68bull}},
        {{9, X, S, 0.0},
         {1945, 4842, 42588, 12105, 0, 0x3c1d9bdd976eec68ull}},
        {{9, X, H, 0.0},
         {1945, 4842, 42588, 12105, 0, 0x13cc51e32adc0fa7ull}},
        {{11, Z, S, 0.0},
         {3631, 8932, 79354, 22451, 0, 0x34469c4322fae4e4ull}},
        {{11, Z, H, 0.0},
         {3631, 8932, 79354, 22451, 0, 0x1ac77ca9b5b8ece0ull}},
        {{11, X, S, 0.0},
         {3631, 8932, 79354, 22451, 0, 0x60a7043f0ea9af39ull}},
        {{11, X, H, 0.0},
         {3631, 8932, 79354, 22451, 0, 0x7f4f388ba06e8085ull}},
        {{5, Z, S, 0.5},
         {301, 790, 6640, 1925, 0, 0xde849f2000def12eull}},
        {{5, X, S, 0.5},
         {301, 790, 6640, 1925, 0, 0x35e0161e6309a4a1ull}},
        {{7, Z, S, 0.5},
         {883, 2240, 19390, 5551, 0, 0x9d8699a8e07c02c5ull}},
        {{7, X, S, 0.5},
         {883, 2240, 19390, 5551, 0, 0x962f20c1c207de2cull}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "d=" << c.config.distance << " basis="
                     << (c.config.basis == Z ? "Z" : "X") << " schedule="
                     << (c.config.schedule == S ? "standard" : "hook")
                     << " drift=" << c.config.driftSpread);
        EXPECT_EQ(pinOf(c.config), c.pin);
    }
}

/** Per-k failure counts and shots of both decoders. */
struct EstimatorPin
{
    std::vector<uint64_t> shotsUsed;
    std::vector<uint64_t> mwpmFailures;
    std::vector<uint64_t> astreaGFailures;
};

/** Holds the pin at 1, 2 and 4 threads: blocks, not workers, seed shots. */
void
expectEstimatorPin(SemiAnalyticConfig cfg, const EstimatorPin &pin)
{
    ExperimentConfig ec;
    ec.distance = 5;
    ec.physicalErrorRate = 1e-3;
    const ExperimentContext ctx(ec);
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        cfg.threads = threads;
        const auto r = estimateLerSemiAnalyticMulti(
            ctx, {mwpmFactory(), astreaGFactory()}, cfg);
        ASSERT_EQ(r.size(), 2u);
        EXPECT_EQ(r[0].shotsUsed, pin.shotsUsed);
        EXPECT_EQ(r[0].failuresSeen, pin.mwpmFailures);
        EXPECT_EQ(r[1].failuresSeen, pin.astreaGFailures);
    }
}

TEST(SemiAnalyticPin, FixedBudgetD5)
{
    SemiAnalyticConfig cfg;
    cfg.maxFaults = 8;
    cfg.shotsPerK = 3000;
    cfg.seed = 0x5a5;
    expectEstimatorPin(
        cfg, {{0, 3000, 3000, 3000, 3000, 3000, 3000, 3000, 3000},
              {0, 0, 0, 5, 19, 48, 82, 127, 180},
              {0, 0, 0, 5, 19, 48, 81, 129, 182}});
}

TEST(SemiAnalyticPin, AdaptiveBudgetD5)
{
    // Chunks of 1,000 shots until both decoders see 40 failures or a k
    // has spent 4,000 shots: exercises the per-chunk seeding.
    SemiAnalyticConfig cfg;
    cfg.maxFaults = 7;
    cfg.shotsPerK = 1000;
    cfg.targetFailures = 40;
    cfg.maxShotsPerK = 4000;
    cfg.seed = 0xada;
    expectEstimatorPin(cfg, {{0, 4000, 4000, 4000, 4000, 3000, 3000, 2000},
                             {0, 0, 0, 4, 21, 42, 55, 86},
                             {0, 0, 0, 4, 22, 42, 55, 84}});
}

// ------------------------------------------------ frame-simulator oracle

/** Detector indices and observable mask of a frame-simulator run. */
std::pair<std::vector<uint32_t>, uint64_t>
symptomOf(const BitVec &dets, const BitVec &obs)
{
    uint64_t mask = 0;
    for (uint32_t o : obs.onesIndices())
        mask |= 1ull << o;
    return {dets.onesIndices(), mask};
}

std::pair<std::vector<uint32_t>, uint64_t>
rowOf(const FaultSymptomTable &table, size_t row)
{
    const auto d = table.rowDetectors(row);
    return {{d.begin(), d.end()}, table.observables[row]};
}

/** Check every row of the circuit's table against injection. */
void
expectRowsMatchInjection(const Circuit &c)
{
    const FaultSymptomTable table = buildFaultSymptomTable(c);
    ASSERT_EQ(table.sites.size(), enumerateFaultSites(c).size());
    ASSERT_EQ(table.rowBegin.size(), table.numRows() + 1);
    FrameSimulator sim(c);
    BitVec dets, obs;
    for (size_t s = 0; s < table.sites.size(); s++) {
        const auto outcomes = enumerateFaultOutcomes(table.sites[s]);
        ASSERT_EQ(table.siteRow[s + 1] - table.siteRow[s],
                  outcomes.size());
        for (size_t k = 0; k < outcomes.size(); k++) {
            sim.propagateInjection(table.sites[s].opIndex,
                                   outcomes[k].second, dets, obs);
            ASSERT_EQ(rowOf(table, table.siteRow[s] + k),
                      symptomOf(dets, obs))
                << "site " << s << " outcome " << k;
        }
    }
}

TEST(SymptomTable, HandBuiltCircuitMatchesInjection)
{
    // What memory circuits never use: MR, CX pairs that share a qubit,
    // a qubit measured twice in one M, a detector that lists a record
    // twice, two observables, one of which includes a record twice, and
    // a zero-probability channel (no fault site).
    Circuit c(3);
    c.appendGate(GateType::R, {0, 1, 2});
    c.appendGate(GateType::Depolarize1, {0, 1, 2}, 0.01);
    c.appendGate(GateType::H, {0});
    c.appendGate(GateType::CX, {0, 1, 1, 2});
    c.appendGate(GateType::Depolarize2, {0, 2, 1, 0}, 0.01);
    c.appendGate(GateType::XError, {1}, 0.01);
    c.appendGate(GateType::ZError, {1}, 0.0);
    c.appendGate(GateType::MR, {1, 2});
    c.appendGate(GateType::ZError, {0, 2}, 0.01);
    c.appendGate(GateType::CX, {0, 2, 2, 1});
    c.appendGate(GateType::H, {0, 2});
    c.appendGate(GateType::Depolarize1, {0, 1, 2}, 0.01);
    c.appendGate(GateType::M, {0, 1, 1, 2});
    c.appendDetector({0}, {});
    c.appendDetector({1, 3, 3}, {});
    c.appendDetector({0, 2}, {});
    c.appendDetector({1, 4, 5}, {});
    c.appendObservable(0, {2, 5});
    c.appendObservable(1, {0, 3});
    c.appendObservable(1, {4, 3});
    c.validate();
    expectRowsMatchInjection(c);
}

class SymptomOracle
    : public ::testing::TestWithParam<std::pair<uint32_t, Basis>>
{
  protected:
    Circuit
    circuit() const
    {
        return circuitFor({GetParam().first, GetParam().second,
                           CxSchedule::Standard, 0.0});
    }
};

TEST_P(SymptomOracle, EveryRowMatchesItsInjectedOutcome)
{
    expectRowsMatchInjection(circuit());
}

TEST_P(SymptomOracle, XorOfRowsMatchesFaultSetPropagation)
{
    const Circuit c = circuit();
    const FaultSymptomTable table = buildFaultSymptomTable(c);
    FrameSimulator sim(c);
    Rng rng(0x0c1e + GetParam().first);
    BitVec dets, obs;
    BitVec xor_dets(c.numDetectors());
    std::vector<size_t> chosen;
    std::vector<FrameSimulator::Fault> faults;
    for (int shot = 0; shot < 5000; shot++) {
        const size_t k = 1 + rng.uniformInt(12);
        chosen.clear();
        while (chosen.size() < k) {
            const size_t site = rng.uniformInt(table.sites.size());
            if (std::find(chosen.begin(), chosen.end(), site) ==
                chosen.end())
                chosen.push_back(site);
        }
        std::sort(chosen.begin(), chosen.end());

        faults.clear();
        xor_dets.clear();
        uint64_t xor_obs = 0;
        for (size_t site : chosen) {
            const auto outcomes = enumerateFaultOutcomes(table.sites[site]);
            const size_t o = rng.uniformInt(outcomes.size());
            faults.push_back({table.sites[site].opIndex,
                              outcomes[o].second});
            const size_t row = table.siteRow[site] + o;
            for (uint32_t d : table.rowDetectors(row))
                xor_dets.flip(d);
            xor_obs ^= table.observables[row];
        }
        sim.propagateFaultSet(faults, dets, obs);
        ASSERT_EQ(std::pair(xor_dets.onesIndices(), xor_obs),
                  symptomOf(dets, obs))
            << "shot " << shot;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, SymptomOracle,
    ::testing::Values(std::pair{3u, Basis::Z}, std::pair{3u, Basis::X},
                      std::pair{5u, Basis::Z}, std::pair{5u, Basis::X}),
    [](const auto &info) {
        return "D" + std::to_string(info.param.first) +
               (info.param.second == Basis::Z ? "Z" : "X");
    });

} // namespace
} // namespace astrea

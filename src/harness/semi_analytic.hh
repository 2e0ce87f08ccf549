/**
 * @file
 * Semi-analytic logical-error-rate estimator (paper Appendix A.1,
 * Eq. 3).
 *
 * Monte Carlo cannot resolve LERs of 1e-10 and below in reasonable
 * time. The paper's appendix method decomposes the LER by fault count:
 * LER = sum_k Po(k) * Pf(k), where Po(k) is the probability that
 * exactly k fault sites fire in a logical cycle (exact: every channel
 * instance fires i.i.d. with probability p, so k ~ Binomial(N, p) over
 * the N sites) and Pf(k) is the probability a decoder fails given k
 * faults, estimated by injecting exactly k uniformly-chosen faults per
 * shot. A shot's detectors and observables are the XOR of its faults'
 * rows in the circuit's FaultSymptomTable (dem/extractor.hh), which is
 * built once per call.
 */

#ifndef ASTREA_HARNESS_SEMI_ANALYTIC_HH
#define ASTREA_HARNESS_SEMI_ANALYTIC_HH

#include <vector>

#include "harness/memory_experiment.hh"

namespace astrea
{

/** Estimator knobs. */
struct SemiAnalyticConfig
{
    uint32_t maxFaults = 12;       ///< Largest k evaluated.
    uint64_t shotsPerK = 20000;    ///< Trials per fault count (chunk).
    uint64_t seed = 1;
    unsigned threads = 0;

    /**
     * Adaptive stopping: when nonzero, keep drawing shotsPerK-sized
     * chunks for each k until this many failures are observed (or
     * maxShotsPerK is reached). Rare Pf(k) — the d = 7+ low-p regime —
     * are unresolvable at fixed small budgets; this concentrates the
     * effort where failures are scarce.
     */
    uint64_t targetFailures = 0;
    uint64_t maxShotsPerK = 0;  ///< 0 means shotsPerK (no adaptation).
};

/** Per-k and combined estimates. */
struct SemiAnalyticResult
{
    /** failureProb[k] = Pf(k); index 0 is always 0. */
    std::vector<double> failureProb;
    /** Shots actually spent per k (varies in adaptive mode). */
    std::vector<uint64_t> shotsUsed;
    /** Failures observed per k. */
    std::vector<uint64_t> failuresSeen;
    /** occurrenceProb[k] = Po(k). */
    std::vector<double> occurrenceProb;
    /** Total fault sites N in the circuit. */
    uint64_t faultSites = 0;
    /** sum_k Po(k) Pf(k) over the evaluated range. */
    double ler = 0.0;
    /** Probability mass of k > maxFaults (unevaluated tail). */
    double tailMass = 0.0;
};

/** Run the estimator for one decoder. */
SemiAnalyticResult estimateLerSemiAnalytic(
    const ExperimentContext &ctx, const DecoderFactory &factory,
    const SemiAnalyticConfig &config);

/**
 * Run the estimator for several decoders on IDENTICAL fault sets.
 *
 * Every injected shot is sampled once and decoded by every decoder,
 * so cross-decoder LER ratios are exactly paired (no sampling noise
 * between columns) and the sampling cost is shared. In
 * adaptive mode, sampling for a fault count continues until every
 * decoder has reached targetFailures or maxShotsPerK is exhausted.
 */
std::vector<SemiAnalyticResult> estimateLerSemiAnalyticMulti(
    const ExperimentContext &ctx,
    const std::vector<DecoderFactory> &factories,
    const SemiAnalyticConfig &config);

} // namespace astrea

#endif // ASTREA_HARNESS_SEMI_ANALYTIC_HH

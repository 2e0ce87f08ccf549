/**
 * @file
 * Detector error model: the set of independent error mechanisms a noisy
 * circuit induces on its detectors.
 *
 * Each mechanism is a symptom set (detectors it flips, observables it
 * flips) with a probability. Mechanisms with identical symptoms are
 * merged with the XOR-convolution rule p = p1 (1 - p2) + p2 (1 - p1),
 * exactly as in Stim's detector error models. The decoding graph and the
 * fast sparse sampler are both built from this structure.
 */

#ifndef ASTREA_DEM_ERROR_MODEL_HH
#define ASTREA_DEM_ERROR_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace astrea
{

/** One independent error mechanism. */
struct ErrorMechanism
{
    double probability = 0.0;
    /** Flipped detectors, sorted ascending. */
    std::vector<uint32_t> detectors;
    /** Flipped logical observables, as a bitmask. */
    uint64_t observables = 0;
};

/** Collection of merged error mechanisms for one circuit. */
class ErrorModel
{
  public:
    ErrorModel(uint32_t num_detectors, uint32_t num_observables)
        : numDetectors_(num_detectors), numObservables_(num_observables)
    {}

    uint32_t numDetectors() const { return numDetectors_; }
    uint32_t numObservables() const { return numObservables_; }

    /**
     * Add one mechanism, merging with any existing mechanism that has
     * the same symptom set. detectors need not be sorted.
     */
    void addMechanism(double probability, std::vector<uint32_t> detectors,
                      uint64_t observables);

    /**
     * addMechanism() for detectors already sorted ascending. The
     * detectors are copied only when they start a new mechanism.
     */
    void addSortedMechanism(double probability,
                            std::span<const uint32_t> detectors,
                            uint64_t observables);

    const std::vector<ErrorMechanism> &mechanisms() const
    {
        return mechanisms_;
    }

    /** Expected number of mechanisms firing per shot (sum of p). */
    double expectedErrorsPerShot() const;

  private:
    /** Re-insert every mechanism into an index of `slots` slots. */
    void rebuildIndex(size_t slots);

    uint32_t numDetectors_;
    uint32_t numObservables_;
    std::vector<ErrorMechanism> mechanisms_;
    /**
     * Open-addressing hash index over symptoms: each slot holds a
     * mechanism's index plus one, or 0 when empty. Its size is a power
     * of two at least twice the mechanism count.
     */
    std::vector<uint32_t> index_;
};

} // namespace astrea

#endif // ASTREA_DEM_ERROR_MODEL_HH

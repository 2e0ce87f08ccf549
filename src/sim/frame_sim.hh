/**
 * @file
 * Pauli-frame simulator.
 *
 * For stabilizer circuits whose detectors are deterministic in the
 * absence of noise (true of the memory experiments generated here), the
 * effect of Pauli noise is fully captured by tracking the Pauli frame —
 * the X/Z flip pattern relative to the noiseless execution — through the
 * Clifford operations. Detection events are the parities of the recorded
 * measurement flips. This is the same semantics as Stim's frame
 * simulator, specialized to the gate set in circuit/gate.hh.
 *
 * propagateInjection() pushes a single deterministic Pauli fault
 * through the (noiseless) remainder of the circuit and reports which
 * detectors and observables it flips; propagateFaultSet() does the same
 * for several faults at once. Error-model extraction and the
 * semi-analytic estimator use the backward sweep of dem/extractor.hh
 * instead, and the tests hold that sweep to these two functions.
 */

#ifndef ASTREA_SIM_FRAME_SIM_HH
#define ASTREA_SIM_FRAME_SIM_HH

#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "common/bitvec.hh"
#include "common/rng.hh"

namespace astrea
{

/** A Pauli applied to one qubit (for fault injection). */
struct PauliFlip
{
    uint32_t qubit;
    bool flipX;  ///< Has an X component (X or Y).
    bool flipZ;  ///< Has a Z component (Z or Y).
};

/** Monte-Carlo Pauli-frame sampler for one fixed circuit. */
class FrameSimulator
{
  public:
    explicit FrameSimulator(const Circuit &circuit);

    /**
     * Sample one shot with all noise channels active.
     *
     * @param rng Random stream for the error draws.
     * @param detectors Out: detection events (size numDetectors()).
     * @param observables Out: logical flips (size numObservables()).
     */
    void sample(Rng &rng, BitVec &detectors, BitVec &observables);

    /**
     * Noiseless propagation of one injected fault.
     *
     * The fault is applied just after instruction op_index executes
     * (i.e. where that instruction's noise would act); every noise
     * channel is otherwise disabled. Deterministic.
     *
     * @param op_index Index of the instruction the fault replaces.
     * @param flips Pauli components of the fault.
     * @param detectors Out: flipped detectors.
     * @param observables Out: flipped observables.
     */
    void propagateInjection(size_t op_index,
                            const std::vector<PauliFlip> &flips,
                            BitVec &detectors, BitVec &observables);

    /** One injected fault for propagateFaultSet(). */
    struct Fault
    {
        size_t opIndex;
        std::vector<PauliFlip> flips;
    };

    /**
     * Noiseless propagation of a set of injected faults, each applied
     * at its own instruction (the semi-analytic estimator's "exactly k
     * errors" shots). Faults must be sorted by opIndex.
     */
    void propagateFaultSet(const std::vector<Fault> &faults,
                           BitVec &detectors, BitVec &observables);

    const Circuit &circuit() const { return circuit_; }

  private:
    /**
     * Shared interpreter loop.
     *
     * @param rng Null for noiseless propagation.
     * @param start_op First instruction to execute.
     * @param faults Optional sorted fault list to apply along the way.
     */
    void run(Rng *rng, size_t start_op, BitVec &detectors,
             BitVec &observables,
             const std::vector<Fault> *faults = nullptr);

    void applyNoise(const Instruction &op, Rng &rng);

    const Circuit &circuit_;
    std::vector<uint8_t> xFlip_;
    std::vector<uint8_t> zFlip_;
    std::vector<uint8_t> measFlip_;
    /** Measurement-record index of the next M during a run. */
    uint32_t measCursor_ = 0;
    /**
     * Record index reached before each instruction, so injected runs can
     * start mid-circuit with the correct measurement cursor.
     */
    std::vector<uint32_t> measBase_;
};

} // namespace astrea

#endif // ASTREA_SIM_FRAME_SIM_HH

/**
 * @file
 * Detector-error-model extraction and fault-site enumeration.
 *
 * Extraction finds, for every elementary Pauli fault the circuit's
 * noise channels can produce, the detectors and observables it flips.
 * Pauli propagation through Clifford gates is linear over GF(2), so one
 * backward sweep over the instructions gives all of them at once, as in
 * Stim: for each qubit it tracks what an X or a Z at the current point
 * would flip, and reads every fault site's outcomes off those sets when
 * it reaches the site (buildFaultSymptomTable). The model is exact for
 * independent Pauli noise up to the usual first-order DEM approximation
 * (components of one depolarizing channel are treated as independent,
 * as Stim does).
 *
 * Fault sites (the channel instances themselves, each firing i.i.d.
 * with probability p) and their per-outcome symptoms are also exposed:
 * the semi-analytic LER estimator (paper Appendix A.1) injects exactly
 * k faults drawn uniformly over sites and XORs their symptom rows.
 */

#ifndef ASTREA_DEM_EXTRACTOR_HH
#define ASTREA_DEM_EXTRACTOR_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hh"
#include "dem/error_model.hh"
#include "sim/frame_sim.hh"

namespace astrea
{

/**
 * One instance of a noise channel: a specific (instruction, target or
 * target-pair) that fires with probability prob.
 */
struct FaultSite
{
    size_t opIndex;
    GateType type;
    double prob;
    uint32_t qubit0;
    uint32_t qubit1;  ///< Only for Depolarize2; kNoSecondQubit otherwise.
};

constexpr uint32_t kNoSecondQubit = 0xffffffffu;

/** All channel instances of the circuit, in instruction order. */
std::vector<FaultSite> enumerateFaultSites(const Circuit &circuit);

/**
 * Number of outcomes of a noise channel: 1 for X_ERROR and Z_ERROR, 3
 * for DEPOLARIZE1, 15 for DEPOLARIZE2. Each is equally likely.
 */
uint32_t faultOutcomeCount(GateType type);

/**
 * All possible outcomes of a site with their conditional probabilities
 * relative to one shot (i.e. already multiplied by site.prob). For the
 * depolarizing channels outcome k (0-based) is Pauli code k + 1, with
 * bit 0 = X and bit 1 = Z per qubit; DEPOLARIZE2 puts qubit0's code in
 * bits 2-3 and qubit1's in bits 0-1.
 */
std::vector<std::pair<double, std::vector<PauliFlip>>>
enumerateFaultOutcomes(const FaultSite &site);

/**
 * The symptoms of every outcome of every fault site, as one flat table.
 *
 * Row r is one site outcome: the detectors it flips are
 * detectors[rowBegin[r]] .. detectors[rowBegin[r + 1] - 1], sorted
 * ascending, and observables[r] is the mask of observables it flips.
 * Site s owns rows siteRow[s] .. siteRow[s + 1] - 1, one per outcome in
 * enumerateFaultOutcomes() order. Because propagation is linear, the
 * symptoms of several faults are the XOR of their rows.
 */
struct FaultSymptomTable
{
    /** Every fault site, in instruction order (enumerateFaultSites). */
    std::vector<FaultSite> sites;
    std::vector<uint32_t> siteRow;   ///< sites.size() + 1 entries.
    std::vector<uint32_t> rowBegin;  ///< numRows() + 1 entries.
    std::vector<uint32_t> detectors;
    std::vector<uint64_t> observables;  ///< One mask per row.

    size_t numRows() const { return observables.size(); }

    std::span<const uint32_t>
    rowDetectors(size_t row) const
    {
        return {detectors.data() + rowBegin[row],
                detectors.data() + rowBegin[row + 1]};
    }
};

/**
 * Build the symptom table with one backward sweep over the circuit.
 *
 * Walking the instructions in reverse, each qubit q carries Sx[q] and
 * Sz[q]: the detectors and observables that an X or a Z on q at that
 * point would flip. CX c->t sets Sx[c] ^= Sx[t] and Sz[t] ^= Sz[c], H
 * swaps the two, M XORs into Sx the detectors and observables that read
 * its record, R clears both, and MR clears both before the M rule. At
 * a noise instruction every site outcome reads its row from the sets
 * (Y is Sx ^ Sz).
 */
FaultSymptomTable buildFaultSymptomTable(const Circuit &circuit);

/** Statistics from an extraction pass. */
struct ExtractionStats
{
    size_t faultSites = 0;
    size_t outcomesPropagated = 0;  ///< Site outcomes (table rows).
    size_t emptySymptoms = 0;   ///< Outcomes flipping nothing we track.
    size_t oversizeSymptoms = 0; ///< Outcomes flipping > 2 detectors.
};

/**
 * Build the detector error model of a circuit: every site outcome of
 * buildFaultSymptomTable() with a non-empty symptom, added in site
 * order, merging outcomes with identical symptoms.
 */
ErrorModel extractErrorModel(const Circuit &circuit,
                             ExtractionStats *stats = nullptr);

} // namespace astrea

#endif // ASTREA_DEM_EXTRACTOR_HH

#include "dem/error_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace astrea
{

namespace
{

constexpr size_t kInitialIndexSlots = 64;

uint64_t
symptomHash(std::span<const uint32_t> detectors, uint64_t observables)
{
    uint64_t h = (observables ^ detectors.size()) * 0x9e3779b97f4a7c15ull;
    for (uint32_t d : detectors)
        h = (h ^ d) * 0xff51afd7ed558ccdull;
    return h ^ (h >> 29);
}

} // namespace

void
ErrorModel::addMechanism(double probability,
                         std::vector<uint32_t> detectors,
                         uint64_t observables)
{
    std::sort(detectors.begin(), detectors.end());
    addSortedMechanism(probability, detectors, observables);
}

void
ErrorModel::addSortedMechanism(double probability,
                               std::span<const uint32_t> detectors,
                               uint64_t observables)
{
    if (probability <= 0.0)
        return;
    ASTREA_CHECK(std::is_sorted(detectors.begin(), detectors.end()),
                 "detectors must be sorted");
    for (auto d : detectors)
        ASTREA_CHECK(d < numDetectors_, "detector index out of range");
    if (index_.empty())
        index_.assign(kInitialIndexSlots, 0);

    const size_t mask = index_.size() - 1;
    size_t slot = symptomHash(detectors, observables) & mask;
    for (; index_[slot]; slot = (slot + 1) & mask) {
        ErrorMechanism &m = mechanisms_[index_[slot] - 1];
        if (m.observables == observables &&
            std::equal(m.detectors.begin(), m.detectors.end(),
                       detectors.begin(), detectors.end())) {
            double &p = m.probability;
            p = p * (1.0 - probability) + probability * (1.0 - p);
            return;
        }
    }
    mechanisms_.push_back(
        {probability, {detectors.begin(), detectors.end()}, observables});
    index_[slot] = static_cast<uint32_t>(mechanisms_.size());
    if (2 * mechanisms_.size() > index_.size())
        rebuildIndex(2 * index_.size());
}

void
ErrorModel::rebuildIndex(size_t slots)
{
    index_.assign(slots, 0);
    const size_t mask = slots - 1;
    for (size_t i = 0; i < mechanisms_.size(); i++) {
        const ErrorMechanism &m = mechanisms_[i];
        size_t slot = symptomHash(m.detectors, m.observables) & mask;
        while (index_[slot])
            slot = (slot + 1) & mask;
        index_[slot] = static_cast<uint32_t>(i + 1);
    }
}

double
ErrorModel::expectedErrorsPerShot() const
{
    double sum = 0.0;
    for (const auto &m : mechanisms_)
        sum += m.probability;
    return sum;
}

} // namespace astrea

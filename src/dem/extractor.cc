#include "dem/extractor.hh"

#include <array>

#include "common/logging.hh"

namespace astrea
{

std::vector<FaultSite>
enumerateFaultSites(const Circuit &circuit)
{
    std::vector<FaultSite> sites;
    const auto &ops = circuit.instructions();
    for (size_t i = 0; i < ops.size(); i++) {
        const auto &op = ops[i];
        if (!isNoise(op.type) || op.arg <= 0.0)
            continue;
        if (op.type == GateType::Depolarize2) {
            for (size_t t = 0; t + 1 < op.targets.size(); t += 2) {
                sites.push_back({i, op.type, op.arg, op.targets[t],
                                 op.targets[t + 1]});
            }
        } else {
            for (auto q : op.targets)
                sites.push_back({i, op.type, op.arg, q, kNoSecondQubit});
        }
    }
    return sites;
}

namespace
{

/** Decode a 2-bit Pauli code (bit0 = X, bit1 = Z) onto a qubit. */
void
pushPauli(std::vector<PauliFlip> &out, uint32_t qubit, uint64_t code)
{
    if (code == 0)
        return;
    out.push_back({qubit, (code & 1) != 0, (code & 2) != 0});
}

} // namespace

uint32_t
faultOutcomeCount(GateType type)
{
    switch (type) {
      case GateType::XError:
      case GateType::ZError:
        return 1;
      case GateType::Depolarize1:
        return 3;
      case GateType::Depolarize2:
        return 15;
      default:
        panic("faultOutcomeCount on non-noise instruction");
    }
}

std::vector<std::pair<double, std::vector<PauliFlip>>>
enumerateFaultOutcomes(const FaultSite &site)
{
    std::vector<std::pair<double, std::vector<PauliFlip>>> out;
    switch (site.type) {
      case GateType::XError:
        out.push_back(
            {site.prob, {PauliFlip{site.qubit0, true, false}}});
        break;
      case GateType::ZError:
        out.push_back(
            {site.prob, {PauliFlip{site.qubit0, false, true}}});
        break;
      case GateType::Depolarize1:
        for (uint64_t k = 1; k <= 3; k++) {
            std::vector<PauliFlip> flips;
            pushPauli(flips, site.qubit0, k);
            out.push_back({site.prob / 3.0, std::move(flips)});
        }
        break;
      case GateType::Depolarize2:
        for (uint64_t k = 1; k <= 15; k++) {
            std::vector<PauliFlip> flips;
            pushPauli(flips, site.qubit0, k >> 2);
            pushPauli(flips, site.qubit1, k & 3);
            out.push_back({site.prob / 15.0, std::move(flips)});
        }
        break;
      default:
        panic("enumerateFaultOutcomes on non-noise site");
    }
    return out;
}

namespace
{

/** Symmetric difference of two sorted sets, appended to out. */
void
appendXor(std::vector<uint32_t> &out, std::span<const uint32_t> a,
          std::span<const uint32_t> b)
{
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            out.push_back(a[i++]);
        } else if (b[j] < a[i]) {
            out.push_back(b[j++]);
        } else {
            i++;
            j++;
        }
    }
    out.insert(out.end(), a.begin() + i, a.end());
    out.insert(out.end(), b.begin() + j, b.end());
}

/** What one Pauli flips: sorted detectors plus an observable mask. */
struct Symptom
{
    std::vector<uint32_t> detectors;
    uint64_t observables = 0;

    void
    clear()
    {
        detectors.clear();
        observables = 0;
    }
};

} // namespace

FaultSymptomTable
buildFaultSymptomTable(const Circuit &circuit)
{
    ASTREA_CHECK(circuit.numObservables() <= 64,
                 "observable masks hold at most 64 observables");
    FaultSymptomTable t;
    t.sites = enumerateFaultSites(circuit);
    t.siteRow.assign(t.sites.size() + 1, 0);
    for (size_t s = 0; s < t.sites.size(); s++)
        t.siteRow[s + 1] = t.siteRow[s] + faultOutcomeCount(t.sites[s].type);
    const size_t n_rows = t.siteRow.back();
    t.observables.assign(n_rows, 0);

    // The sweep meets the sites last to first, so it writes each row
    // into a pool and the table is laid out in row order at the end.
    std::vector<uint32_t> pool;
    std::vector<std::pair<uint32_t, uint32_t>> pool_span(n_rows);

    std::vector<Symptom> sx(circuit.numQubits());
    std::vector<Symptom> sz(circuit.numQubits());
    // What flipping each measurement result flips. Every DETECTOR and
    // OBSERVABLE_INCLUDE that reads a record comes after its M, so the
    // sweep has filled it in by the time it reaches the M.
    std::vector<Symptom> record(circuit.numMeasurements());
    const Symptom none;
    Symptom y0, y1;
    std::vector<uint32_t> tmp;

    auto xor_into = [&](Symptom &dst, const Symptom &src) {
        tmp.clear();
        appendXor(tmp, dst.detectors, src.detectors);
        dst.detectors.swap(tmp);
        dst.observables ^= src.observables;
    };
    // I, X, Z, Y on qubit q (indexed by Pauli code); Y goes into y.
    auto paulis = [&](uint32_t q, Symptom &y) {
        y.detectors.clear();
        appendXor(y.detectors, sx[q].detectors, sz[q].detectors);
        y.observables = sx[q].observables ^ sz[q].observables;
        return std::array<const Symptom *, 4>{&none, &sx[q], &sz[q], &y};
    };
    auto emit = [&](size_t row, const Symptom &a, const Symptom &b) {
        const auto begin = static_cast<uint32_t>(pool.size());
        appendXor(pool, a.detectors, b.detectors);
        pool_span[row] = {begin, static_cast<uint32_t>(pool.size())};
        t.observables[row] = a.observables ^ b.observables;
    };

    const auto &ops = circuit.instructions();
    uint32_t det = circuit.numDetectors();
    uint32_t meas = circuit.numMeasurements();
    size_t site = t.sites.size();
    for (size_t i = ops.size(); i-- > 0;) {
        const Instruction &op = ops[i];
        switch (op.type) {
          case GateType::R:
            for (auto q : op.targets) {
                sx[q].clear();
                sz[q].clear();
            }
            break;
          case GateType::M:
          case GateType::MR:
            for (size_t k = op.targets.size(); k-- > 0;) {
                const uint32_t q = op.targets[k];
                if (op.type == GateType::MR) {
                    sx[q].clear();
                    sz[q].clear();
                }
                xor_into(sx[q], record[--meas]);
            }
            break;
          case GateType::H:
            for (auto q : op.targets)
                std::swap(sx[q], sz[q]);
            break;
          case GateType::CX:
            for (size_t k = op.targets.size(); k >= 2; k -= 2) {
                const uint32_t c = op.targets[k - 2];
                const uint32_t tq = op.targets[k - 1];
                xor_into(sx[c], sx[tq]);
                xor_into(sz[tq], sz[c]);
            }
            break;
          case GateType::Detector:
            det--;
            for (auto m : op.targets) {
                // Detector ids fall as the sweep goes, so each record's
                // list stays sorted with the newest id in front.
                auto &d = record[m].detectors;
                if (!d.empty() && d.front() == det)
                    d.erase(d.begin());
                else
                    d.insert(d.begin(), det);
            }
            break;
          case GateType::ObservableInclude:
            for (auto m : op.targets) {
                record[m].observables ^= 1ull
                                         << static_cast<uint32_t>(op.arg);
            }
            break;
          case GateType::XError:
          case GateType::ZError:
          case GateType::Depolarize1:
          case GateType::Depolarize2:
            while (site > 0 && t.sites[site - 1].opIndex == i) {
                const FaultSite &fs = t.sites[--site];
                const uint32_t row = t.siteRow[site];
                if (fs.type == GateType::XError) {
                    emit(row, sx[fs.qubit0], none);
                } else if (fs.type == GateType::ZError) {
                    emit(row, sz[fs.qubit0], none);
                } else if (fs.type == GateType::Depolarize1) {
                    const auto p = paulis(fs.qubit0, y0);
                    for (uint32_t k = 1; k <= 3; k++)
                        emit(row + k - 1, *p[k], none);
                } else {
                    const auto p0 = paulis(fs.qubit0, y0);
                    const auto p1 = paulis(fs.qubit1, y1);
                    for (uint32_t k = 1; k <= 15; k++)
                        emit(row + k - 1, *p0[k >> 2], *p1[k & 3]);
                }
            }
            break;
          case GateType::Tick:
            break;
        }
    }

    t.rowBegin.resize(n_rows + 1);
    t.detectors.reserve(pool.size());
    for (size_t r = 0; r < n_rows; r++) {
        t.rowBegin[r] = static_cast<uint32_t>(t.detectors.size());
        t.detectors.insert(t.detectors.end(),
                           pool.begin() + pool_span[r].first,
                           pool.begin() + pool_span[r].second);
    }
    t.rowBegin[n_rows] = static_cast<uint32_t>(t.detectors.size());
    return t;
}

ErrorModel
extractErrorModel(const Circuit &circuit, ExtractionStats *stats)
{
    ErrorModel model(circuit.numDetectors(), circuit.numObservables());
    const FaultSymptomTable table = buildFaultSymptomTable(circuit);
    ExtractionStats local;
    local.faultSites = table.sites.size();
    local.outcomesPropagated = table.numRows();

    for (size_t s = 0; s < table.sites.size(); s++) {
        const FaultSite &site = table.sites[s];
        // The same per-outcome probability enumerateFaultOutcomes gives.
        const double p = site.prob / faultOutcomeCount(site.type);
        for (uint32_t r = table.siteRow[s]; r < table.siteRow[s + 1]; r++) {
            const auto detectors = table.rowDetectors(r);
            const uint64_t observables = table.observables[r];
            if (detectors.empty() && observables == 0) {
                local.emptySymptoms++;
                continue;
            }
            if (detectors.size() > 2)
                local.oversizeSymptoms++;
            model.addSortedMechanism(p, detectors, observables);
        }
    }

    if (stats)
        *stats = local;
    return model;
}

} // namespace astrea

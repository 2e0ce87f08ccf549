#include "graph/decoding_graph.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/logging.hh"
#include "common/weight.hh"

namespace astrea
{

namespace
{

double
edgeWeightFromProb(double p)
{
    // log10((1-p)/p): additive along paths under the independent-edge
    // approximation, and ~ -log10(p) for the small p of interest.
    if (p <= 0.0)
        return std::numeric_limits<double>::infinity();
    if (p >= 0.5)
        return 0.0;
    return std::log10((1.0 - p) / p);
}

} // namespace

DecodingGraph::DecodingGraph(const ErrorModel &model)
    : numNodes_(model.numDetectors()),
      adjacency_(model.numDetectors()),
      boundaryEdge_(model.numDetectors(), -1)
{
    // Each mechanism's contributions, keyed by (endpoints, obs mask)
    // and numbered in mechanism order.
    struct Part
    {
        uint32_t u, v;
        uint64_t obs;
        uint32_t order;
        double p;
    };
    std::vector<Part> parts;
    parts.reserve(model.mechanisms().size());
    auto contribute = [&](uint32_t u, uint32_t v, uint64_t obs, double p) {
        if (u > v)
            std::swap(u, v);
        parts.push_back({u, v, obs, static_cast<uint32_t>(parts.size()), p});
    };

    for (const auto &m : model.mechanisms()) {
        const auto &dets = m.detectors;
        if (dets.empty()) {
            if (m.observables)
                stats_.undetectableLogical++;
            continue;
        }
        stats_.mechanismsUsed++;
        if (dets.size() == 1) {
            contribute(dets[0], kBoundaryNode, m.observables, m.probability);
        } else if (dets.size() == 2) {
            contribute(dets[0], dets[1], m.observables, m.probability);
        } else {
            // Non-graphlike mechanism: decompose into a chain of pairs,
            // attaching the observable effect to the first pair (the
            // XOR of the chain reproduces the symptom set).
            stats_.decomposedMechanisms++;
            for (size_t i = 0; i + 1 < dets.size(); i += 2) {
                contribute(dets[i], dets[i + 1],
                           i == 0 ? m.observables : 0, m.probability);
            }
            if (dets.size() % 2 == 1)
                contribute(dets.back(), kBoundaryNode, 0, m.probability);
        }
    }

    // One sort groups the parallel mechanisms of each key, still in
    // mechanism order, and the keys of each edge in (u, v) order, the
    // boundary (kBoundaryNode) last.
    std::sort(parts.begin(), parts.end(), [](const Part &a, const Part &b) {
        return std::tie(a.u, a.v, a.obs, a.order) <
               std::tie(b.u, b.v, b.obs, b.order);
    });
    for (size_t i = 0; i < parts.size();) {
        const uint32_t u = parts[i].u, v = parts[i].v;
        double best_p = 0.0;
        uint64_t best_obs = 0;
        for (bool first = true;
             i < parts.size() && parts[i].u == u && parts[i].v == v;
             first = false) {
            // Merge a key's mechanisms: p = p1(1-p2) + p2(1-p1).
            const uint64_t obs = parts[i].obs;
            double p = 0.0;
            for (; i < parts.size() && parts[i].u == u && parts[i].v == v &&
                   parts[i].obs == obs;
                 i++)
                p = p * (1.0 - parts[i].p) + parts[i].p * (1.0 - p);
            // Parallel edges that differ only in observable mask are
            // physically distinct chains; the decoder can only pick
            // one, so keep the more probable (the first on a tie).
            if (!first)
                stats_.obsConflicts++;
            if (first || p > best_p) {
                best_p = p;
                best_obs = obs;
            }
        }
        addEdge(u, v, best_p, best_obs);
    }
}

void
DecodingGraph::addEdge(uint32_t u, uint32_t v, double probability,
                       uint64_t obs_mask)
{
    ASTREA_CHECK(u < numNodes_, "edge endpoint out of range");
    uint32_t idx = static_cast<uint32_t>(edges_.size());
    edges_.push_back(
        {u, v, probability, edgeWeightFromProb(probability), obs_mask});
    adjacency_[u].push_back({idx, v});
    if (v == kBoundaryNode) {
        // Keep the lightest boundary edge as the node's boundary link.
        if (boundaryEdge_[u] < 0 ||
            edges_[boundaryEdge_[u]].weight > edges_[idx].weight) {
            boundaryEdge_[u] = static_cast<int32_t>(idx);
        }
    } else {
        ASTREA_CHECK(v < numNodes_, "edge endpoint out of range");
        adjacency_[v].push_back({idx, u});
    }
}

} // namespace astrea

#include "graph/dijkstra.hh"

#include <algorithm>
#include <limits>

namespace astrea
{

namespace
{

constexpr uint32_t kNotQueued = 0xffffffffu;

} // namespace

ShortestPathGraph::ShortestPathGraph(const DecodingGraph &graph)
    : first_(graph.numNodes() + 1, 0)
{
    for (uint32_t n = 0; n < graph.numNodes(); n++)
        first_[n + 1] = first_[n] +
                        static_cast<uint32_t>(graph.neighbors(n).size());
    arcs_.reserve(first_.back());
    for (uint32_t n = 0; n < graph.numNodes(); n++) {
        for (auto [edge_idx, other] : graph.neighbors(n)) {
            const GraphEdge &e = graph.edges()[edge_idx];
            arcs_.push_back({e.weight, e.obsMask, other});
        }
    }
}

DijkstraWorkspace::DijkstraWorkspace(const ShortestPathGraph &graph)
    : graph_(graph), dist_(graph.numNodes()), obs_(graph.numNodes()),
      heapPos_(graph.numNodes(), kNotQueued)
{
    heap_.reserve(graph.numNodes());
}

void
DijkstraWorkspace::siftUp(uint32_t pos, Queued e)
{
    while (pos > 0) {
        const uint32_t parent = (pos - 1) / 2;
        if (!(e < heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        heapPos_[heap_[pos].node] = pos;
        pos = parent;
    }
    heap_[pos] = e;
    heapPos_[e.node] = pos;
}

void
DijkstraWorkspace::popFront()
{
    heapPos_[heap_.front().node] = kNotQueued;
    const Queued last = heap_.back();
    heap_.pop_back();
    const auto size = static_cast<uint32_t>(heap_.size());
    if (size == 0)
        return;
    // Walk the hole down the smaller children to a leaf, then settle
    // the last entry upward from there: it almost always belongs near
    // the bottom, so this compares less than a plain sift-down.
    uint32_t pos = 0;
    for (uint32_t child; (child = 2 * pos + 1) < size; pos = child) {
        if (child + 1 < size && heap_[child + 1] < heap_[child])
            child++;
        heap_[pos] = heap_[child];
        heapPos_[heap_[pos].node] = pos;
    }
    siftUp(pos, last);
}

void
DijkstraWorkspace::run(uint32_t source)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::fill(dist_.begin(), dist_.end(), inf);
    std::fill(obs_.begin(), obs_.end(), 0);
    boundaryDist_ = inf;
    boundaryObs_ = 0;

    dist_[source] = 0.0;
    heap_.push_back({0.0, source});
    heapPos_[source] = 0;
    while (!heap_.empty()) {
        // Settle the queued node first in (distance, node id) order.
        const auto [d, u] = heap_.front();
        popFront();
        const uint64_t obs = obs_[u];
        const ShortestPathGraph::Arc *arcs = graph_.arcs_.data();
        for (const auto *arc = arcs + graph_.first_[u],
                        *end = arcs + graph_.first_[u + 1];
             arc != end; arc++) {
            const double nd = d + arc->weight;
            if (arc->to == kBoundaryNode) {
                if (nd < boundaryDist_) {
                    boundaryDist_ = nd;
                    boundaryObs_ = obs ^ arc->obsMask;
                }
                continue;
            }
            const uint32_t v = arc->to;
            if (nd < dist_[v]) {
                dist_[v] = nd;
                obs_[v] = obs ^ arc->obsMask;
                if (heapPos_[v] == kNotQueued) {
                    heap_.push_back({nd, v});
                    siftUp(static_cast<uint32_t>(heap_.size() - 1),
                           {nd, v});
                } else {
                    siftUp(heapPos_[v], {nd, v});
                }
            }
        }
    }
}

ShortestPaths
dijkstraFrom(const DecodingGraph &graph, uint32_t source)
{
    const ShortestPathGraph paths(graph);
    DijkstraWorkspace ws(paths);
    ws.run(source);
    return {{ws.dist().begin(), ws.dist().end()},
            {ws.obsMask().begin(), ws.obsMask().end()},
            ws.boundaryDist(),
            ws.boundaryObs()};
}

} // namespace astrea

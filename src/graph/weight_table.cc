#include "graph/weight_table.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "graph/dijkstra.hh"

namespace astrea
{

GlobalWeightTable::GlobalWeightTable(const DecodingGraph &graph)
    : size_(graph.numNodes()),
      quantized_(static_cast<size_t>(size_) * size_),
      exact_(static_cast<size_t>(size_) * size_),
      obsMask_(static_cast<size_t>(size_) * size_)
{
    auto quantize = [](double w) {
        return std::isinf(w) ? kInfiniteWeight : quantizeWeight(w);
    };
    // One Dijkstra per row. Rows are independent, so workers claim them
    // on the shared loop, each in its own reused workspace.
    const ShortestPathGraph paths(graph);
    runBlocks(size_, 0, [&](unsigned, std::atomic<uint64_t> &next_row) {
        DijkstraWorkspace ws(paths);
        for (uint64_t row;
             (row = next_row.fetch_add(1, std::memory_order_relaxed)) <
             size_;) {
            const auto src = static_cast<uint32_t>(row);
            ws.run(src);
            for (uint32_t j = 0; j < size_; j++) {
                const double w = j == src ? ws.boundaryDist() : ws.dist()[j];
                exact_[idx(src, j)] = w;
                quantized_[idx(src, j)] = quantize(w);
                obsMask_[idx(src, j)] =
                    j == src ? ws.boundaryObs() : ws.obsMask()[j];
            }
        }
    });
}

GlobalWeightTable::GlobalWeightTable(uint32_t size,
                                     std::vector<QWeight> quantized,
                                     std::vector<double> exact,
                                     std::vector<uint64_t> obs_masks)
    : size_(size), quantized_(std::move(quantized)),
      exact_(std::move(exact)), obsMask_(std::move(obs_masks))
{
    const size_t expect = static_cast<size_t>(size) * size;
    ASTREA_CHECK(quantized_.size() == expect &&
                     exact_.size() == expect &&
                     obsMask_.size() == expect,
                 "weight table array sizes inconsistent");
}

double
GlobalWeightTable::exactEffectiveWeight(uint32_t i, uint32_t j) const
{
    double direct = exactWeight(i, j);
    double via_boundary = exactWeight(i, i) + exactWeight(j, j);
    return direct < via_boundary ? direct : via_boundary;
}

uint64_t
GlobalWeightTable::exactEffectiveObs(uint32_t i, uint32_t j) const
{
    double direct = exactWeight(i, j);
    double via_boundary = exactWeight(i, i) + exactWeight(j, j);
    if (direct <= via_boundary)
        return pairObs(i, j);
    return pairObs(i, i) ^ pairObs(j, j);
}

} // namespace astrea

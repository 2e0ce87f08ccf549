/**
 * @file
 * Single-source shortest paths over the decoding graph.
 *
 * Matching weights between arbitrary detector pairs are the weights of
 * the most likely error chain connecting them: the shortest path in the
 * decoding graph under the decade weights. Paths never pass *through*
 * the boundary (two defects ending on the boundary are two separate
 * boundary matches, handled by the matchers), so Dijkstra runs over
 * detector nodes only and the boundary distance is computed as a final
 * relaxation over boundary edges.
 *
 * One kernel computes every row. ShortestPathGraph holds the graph's
 * adjacency as flat arrays, each edge's weight and observable mask
 * inline; it is built once per table and read by every worker. A
 * DijkstraWorkspace is one worker's distance and observable arrays and
 * indexed binary heap, reused from source to source. Nodes settle in
 * (distance, node id) order, and a relaxation wins only when strictly
 * shorter, in adjacency order, so equal-weight paths resolve the same
 * way on every run.
 */

#ifndef ASTREA_GRAPH_DIJKSTRA_HH
#define ASTREA_GRAPH_DIJKSTRA_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/decoding_graph.hh"

namespace astrea
{

/** Result of one single-source run. */
struct ShortestPaths
{
    /** Distance in decades to every detector node (inf if unreachable). */
    std::vector<double> dist;
    /** Observable mask XOR-ed along the shortest path to each node. */
    std::vector<uint64_t> obsMask;
    /** Best distance from the source to the boundary. */
    double boundaryDist;
    uint64_t boundaryObs;
};

/** The decoding graph's adjacency as flat arrays (see file comment). */
class ShortestPathGraph
{
  public:
    explicit ShortestPathGraph(const DecodingGraph &graph);

    uint32_t numNodes() const
    {
        return static_cast<uint32_t>(first_.size() - 1);
    }

  private:
    friend class DijkstraWorkspace;

    /** One edge as seen from one endpoint. */
    struct Arc
    {
        double weight;
        uint64_t obsMask;
        uint32_t to;  ///< kBoundaryNode for a boundary edge.
    };

    /** Node n's arcs are arcs_[first_[n], first_[n + 1]), in
     *  DecodingGraph::neighbors() order. */
    std::vector<uint32_t> first_;
    std::vector<Arc> arcs_;
};

/** One worker's reusable Dijkstra state (see file comment). */
class DijkstraWorkspace
{
  public:
    explicit DijkstraWorkspace(const ShortestPathGraph &graph);

    /** Shortest paths from source; the accessors below read them until
     *  the next run. */
    void run(uint32_t source);

    /** Distance in decades to every detector node (inf if unreachable). */
    std::span<const double> dist() const { return dist_; }
    /** Observable mask XOR-ed along the shortest path to each node. */
    std::span<const uint64_t> obsMask() const { return obs_; }
    /** Best distance from the source to the boundary. */
    double boundaryDist() const { return boundaryDist_; }
    uint64_t boundaryObs() const { return boundaryObs_; }

  private:
    /** A queued node and its distance. */
    struct Queued
    {
        double dist;
        uint32_t node;

        /** Heap order: (distance, node id). */
        bool
        operator<(const Queued &o) const
        {
            return dist < o.dist || (dist == o.dist && node < o.node);
        }
    };

    /** Move e up from heap_[pos] to its place. */
    void siftUp(uint32_t pos, Queued e);
    /** Remove the heap's first entry. */
    void popFront();

    const ShortestPathGraph &graph_;
    std::vector<double> dist_;
    std::vector<uint64_t> obs_;
    std::vector<Queued> heap_;
    std::vector<uint32_t> heapPos_;  ///< Node -> heap_ index, or none.
    double boundaryDist_ = 0.0;
    uint64_t boundaryObs_ = 0;
};

/** Run Dijkstra from one detector node. */
ShortestPaths dijkstraFrom(const DecodingGraph &graph, uint32_t source);

} // namespace astrea

#endif // ASTREA_GRAPH_DIJKSTRA_HH

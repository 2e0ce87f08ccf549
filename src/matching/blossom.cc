#include "matching/blossom.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace astrea
{

namespace
{

/**
 * Edmonds' blossom algorithm for maximum weight matching, O(V^3).
 *
 * Direct port of the Galil formulation as structured in van Rantwijk's
 * reference implementation. Vertices are 0..n-1; blossoms use ids
 * n..2n-1. Each edge k has two "endpoints" 2k and 2k+1; endpoint p
 * belongs to vertex endpoint_[p] and p ^ 1 is the other side. All edge
 * weights are doubled on input so every dual variable stays integral.
 */
class BlossomMatcher
{
  public:
    BlossomMatcher(int n, const std::vector<MatchEdge> &edges,
                   bool max_cardinality);

    /** Run the stages and return mate[v] (partner vertex or -1). */
    std::vector<int> solve();

  private:
    int64_t
    slack(int k) const
    {
        return dualVar_[edges_[k].u] + dualVar_[edges_[k].v] -
               2 * weight_[k];
    }

    void collectLeaves(int b, std::vector<int> &out) const;
    void assignLabel(int w, int t, int p);
    int scanBlossom(int v, int w);
    void addBlossom(int base, int k);
    void expandBlossom(int b, bool endstage);
    void augmentBlossom(int b, int v);
    void augmentMatching(int k);
    void verifyOptimum() const;

    int nVertex_;
    int nEdge_;
    bool maxCardinality_;
    std::vector<MatchEdge> edges_;
    std::vector<int64_t> weight_;  ///< Doubled input weights.
    int64_t maxWeight_ = 0;

    std::vector<int> endpoint_;   ///< endpoint_[p] = vertex of endpoint p.
    std::vector<std::vector<int>> neighbEnd_;  ///< Remote endpoints at v.

    std::vector<int> mate_;       ///< Remote endpoint, or -1.
    std::vector<int> label_;      ///< 0 free, 1 S, 2 T (vertices+blossoms).
    std::vector<int> labelEnd_;
    std::vector<int> inBlossom_;
    std::vector<int> blossomParent_;
    std::vector<std::vector<int>> blossomChilds_;
    std::vector<int> blossomBase_;
    std::vector<std::vector<int>> blossomEndps_;
    std::vector<int> bestEdge_;
    std::vector<std::vector<int>> blossomBestEdges_;
    std::vector<int> unusedBlossoms_;
    std::vector<int64_t> dualVar_;
    std::vector<uint8_t> allowEdge_;
    std::vector<int> queue_;
};

BlossomMatcher::BlossomMatcher(int n, const std::vector<MatchEdge> &edges,
                               bool max_cardinality)
    : nVertex_(n), nEdge_(static_cast<int>(edges.size())),
      maxCardinality_(max_cardinality), edges_(edges)
{
    weight_.reserve(edges_.size());
    for (const auto &e : edges_) {
        ASTREA_CHECK(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n &&
                         e.u != e.v,
                     "bad matcher edge");
        weight_.push_back(2 * e.weight);
        maxWeight_ = std::max(maxWeight_, 2 * e.weight);
    }

    endpoint_.resize(2 * nEdge_);
    neighbEnd_.assign(nVertex_, {});
    for (int k = 0; k < nEdge_; k++) {
        endpoint_[2 * k] = edges_[k].u;
        endpoint_[2 * k + 1] = edges_[k].v;
        neighbEnd_[edges_[k].u].push_back(2 * k + 1);
        neighbEnd_[edges_[k].v].push_back(2 * k);
    }

    mate_.assign(nVertex_, -1);
    label_.assign(2 * nVertex_, 0);
    labelEnd_.assign(2 * nVertex_, -1);
    inBlossom_.resize(nVertex_);
    for (int v = 0; v < nVertex_; v++)
        inBlossom_[v] = v;
    blossomParent_.assign(2 * nVertex_, -1);
    blossomChilds_.assign(2 * nVertex_, {});
    blossomBase_.resize(2 * nVertex_);
    for (int v = 0; v < nVertex_; v++)
        blossomBase_[v] = v;
    for (int b = nVertex_; b < 2 * nVertex_; b++)
        blossomBase_[b] = -1;
    blossomEndps_.assign(2 * nVertex_, {});
    bestEdge_.assign(2 * nVertex_, -1);
    blossomBestEdges_.assign(2 * nVertex_, {});
    for (int b = nVertex_; b < 2 * nVertex_; b++)
        unusedBlossoms_.push_back(b);
    dualVar_.assign(2 * nVertex_, 0);
    for (int v = 0; v < nVertex_; v++)
        dualVar_[v] = maxWeight_;
    allowEdge_.assign(nEdge_, 0);
}

void
BlossomMatcher::collectLeaves(int b, std::vector<int> &out) const
{
    if (b < nVertex_) {
        out.push_back(b);
        return;
    }
    for (int t : blossomChilds_[b])
        collectLeaves(t, out);
}

void
BlossomMatcher::assignLabel(int w, int t, int p)
{
    int b = inBlossom_[w];
    assert(label_[w] == 0 && label_[b] == 0);
    label_[w] = label_[b] = t;
    labelEnd_[w] = labelEnd_[b] = p;
    bestEdge_[w] = bestEdge_[b] = -1;
    if (t == 1) {
        // b became an S-blossom; add its vertices to the scan queue.
        std::vector<int> leaves;
        collectLeaves(b, leaves);
        queue_.insert(queue_.end(), leaves.begin(), leaves.end());
    } else if (t == 2) {
        // b became a T-blossom; label its mate as an S-blossom.
        int base = blossomBase_[b];
        assert(mate_[base] >= 0);
        assignLabel(endpoint_[mate_[base]], 1, mate_[base] ^ 1);
    }
}

int
BlossomMatcher::scanBlossom(int v, int w)
{
    // Trace back from v and w to discover either a new blossom's base
    // or an augmenting path. Label 5 (= 1 | 4) marks visited S-blossoms.
    std::vector<int> path;
    int base = -1;
    while (v != -1 || w != -1) {
        int b = inBlossom_[v];
        if (label_[b] & 4) {
            base = blossomBase_[b];
            break;
        }
        assert(label_[b] == 1);
        path.push_back(b);
        label_[b] = 5;
        assert(labelEnd_[b] == mate_[blossomBase_[b]]);
        if (labelEnd_[b] == -1) {
            v = -1;  // Reached a single vertex (tree root).
        } else {
            v = endpoint_[labelEnd_[b]];
            b = inBlossom_[v];
            assert(label_[b] == 2);
            assert(labelEnd_[b] >= 0);
            v = endpoint_[labelEnd_[b]];
        }
        if (w != -1)
            std::swap(v, w);
    }
    for (int b : path)
        label_[b] = 1;
    return base;
}

void
BlossomMatcher::addBlossom(int base, int k)
{
    int v = edges_[k].u;
    int w = edges_[k].v;
    int bb = inBlossom_[base];
    int bv = inBlossom_[v];
    int bw = inBlossom_[w];

    ASTREA_CHECK(!unusedBlossoms_.empty(), "blossom ids exhausted");
    int b = unusedBlossoms_.back();
    unusedBlossoms_.pop_back();

    blossomBase_[b] = base;
    blossomParent_[b] = -1;
    blossomParent_[bb] = b;

    std::vector<int> path;
    std::vector<int> endps;
    // Trace from v back to the base.
    while (bv != bb) {
        blossomParent_[bv] = b;
        path.push_back(bv);
        endps.push_back(labelEnd_[bv]);
        assert(label_[bv] == 2 ||
               (label_[bv] == 1 &&
                labelEnd_[bv] == mate_[blossomBase_[bv]]));
        assert(labelEnd_[bv] >= 0);
        v = endpoint_[labelEnd_[bv]];
        bv = inBlossom_[v];
    }
    path.push_back(bb);
    std::reverse(path.begin(), path.end());
    std::reverse(endps.begin(), endps.end());
    endps.push_back(2 * k);
    // Trace from w back to the base.
    while (bw != bb) {
        blossomParent_[bw] = b;
        path.push_back(bw);
        endps.push_back(labelEnd_[bw] ^ 1);
        assert(label_[bw] == 2 ||
               (label_[bw] == 1 &&
                labelEnd_[bw] == mate_[blossomBase_[bw]]));
        assert(labelEnd_[bw] >= 0);
        w = endpoint_[labelEnd_[bw]];
        bw = inBlossom_[w];
    }

    assert(label_[bb] == 1);
    label_[b] = 1;
    labelEnd_[b] = labelEnd_[bb];
    dualVar_[b] = 0;
    blossomChilds_[b] = std::move(path);
    blossomEndps_[b] = std::move(endps);

    // Relabel the vertices now inside the new blossom.
    std::vector<int> leaves;
    collectLeaves(b, leaves);
    for (int lv : leaves) {
        if (label_[inBlossom_[lv]] == 2) {
            // Former T-vertex is now an S-vertex: scan it.
            queue_.push_back(lv);
        }
        inBlossom_[lv] = b;
    }

    // Compute the blossom's best-edge lists for delta-3 tracking.
    std::vector<int> best_edge_to(2 * nVertex_, -1);
    for (int child : blossomChilds_[b]) {
        std::vector<std::vector<int>> nblists;
        if (blossomBestEdges_[child].empty()) {
            std::vector<int> child_leaves;
            collectLeaves(child, child_leaves);
            for (int lv : child_leaves) {
                std::vector<int> ks;
                ks.reserve(neighbEnd_[lv].size());
                for (int p : neighbEnd_[lv])
                    ks.push_back(p / 2);
                nblists.push_back(std::move(ks));
            }
        } else {
            nblists.push_back(blossomBestEdges_[child]);
        }
        for (const auto &nblist : nblists) {
            for (int ek : nblist) {
                int i = edges_[ek].u;
                int j = edges_[ek].v;
                if (inBlossom_[j] == b)
                    std::swap(i, j);
                int bj = inBlossom_[j];
                if (bj != b && label_[bj] == 1 &&
                    (best_edge_to[bj] == -1 ||
                     slack(ek) < slack(best_edge_to[bj]))) {
                    best_edge_to[bj] = ek;
                }
            }
        }
        blossomBestEdges_[child].clear();
        bestEdge_[child] = -1;
    }
    blossomBestEdges_[b].clear();
    for (int ek : best_edge_to) {
        if (ek != -1)
            blossomBestEdges_[b].push_back(ek);
    }
    bestEdge_[b] = -1;
    for (int ek : blossomBestEdges_[b]) {
        if (bestEdge_[b] == -1 || slack(ek) < slack(bestEdge_[b]))
            bestEdge_[b] = ek;
    }
}

void
BlossomMatcher::expandBlossom(int b, bool endstage)
{
    // Convert sub-blossoms into top-level blossoms.
    for (int s : blossomChilds_[b]) {
        blossomParent_[s] = -1;
        if (s < nVertex_) {
            inBlossom_[s] = s;
        } else if (endstage && dualVar_[s] == 0) {
            expandBlossom(s, endstage);
        } else {
            std::vector<int> leaves;
            collectLeaves(s, leaves);
            for (int lv : leaves)
                inBlossom_[lv] = s;
        }
    }

    // If we expand a T-blossom during a stage, its sub-blossoms on the
    // path from the entry child to the base must be relabeled.
    if (!endstage && label_[b] == 2) {
        assert(labelEnd_[b] >= 0);
        int entry_child = inBlossom_[endpoint_[labelEnd_[b] ^ 1]];
        int nchilds = static_cast<int>(blossomChilds_[b].size());
        auto child_at = [&](int j) {
            // Indices may be negative while walking; wrap them.
            int m = j % nchilds;
            if (m < 0)
                m += nchilds;
            return blossomChilds_[b][m];
        };
        auto endp_at = [&](int j) {
            int m = j % nchilds;
            if (m < 0)
                m += nchilds;
            return blossomEndps_[b][m];
        };

        int j = 0;
        for (int i = 0; i < nchilds; i++) {
            if (blossomChilds_[b][i] == entry_child) {
                j = i;
                break;
            }
        }
        int jstep, endptrick;
        if (j & 1) {
            j -= nchilds;  // Go forward and wrap around.
            jstep = 1;
            endptrick = 0;
        } else {
            jstep = -1;  // Go backward.
            endptrick = 1;
        }
        int p = labelEnd_[b];
        while (j != 0) {
            // Relabel the T-sub-blossom.
            label_[endpoint_[p ^ 1]] = 0;
            label_[endpoint_[endp_at(j - endptrick) ^ endptrick ^ 1]] = 0;
            assignLabel(endpoint_[p ^ 1], 2, p);
            // Step to the next S-sub-blossom; its edge becomes allowed.
            allowEdge_[endp_at(j - endptrick) / 2] = 1;
            j += jstep;
            p = endp_at(j - endptrick) ^ endptrick;
            // Step to the next T-sub-blossom.
            allowEdge_[p / 2] = 1;
            j += jstep;
        }
        // Relabel the base T-sub-blossom without stepping to its mate.
        int bv = child_at(j);
        label_[endpoint_[p ^ 1]] = 2;
        label_[bv] = 2;
        labelEnd_[endpoint_[p ^ 1]] = p;
        labelEnd_[bv] = p;
        bestEdge_[bv] = -1;
        // Continue along the blossom until we get back to entry_child.
        j += jstep;
        while (child_at(j) != entry_child) {
            bv = child_at(j);
            if (label_[bv] == 1) {
                j += jstep;
                continue;
            }
            std::vector<int> leaves;
            collectLeaves(bv, leaves);
            int labeled_v = -1;
            for (int lv : leaves) {
                if (label_[lv] != 0) {
                    labeled_v = lv;
                    break;
                }
            }
            if (labeled_v != -1) {
                assert(label_[labeled_v] == 2);
                assert(inBlossom_[labeled_v] == bv);
                label_[labeled_v] = 0;
                label_[endpoint_[mate_[blossomBase_[bv]]]] = 0;
                assignLabel(labeled_v, 2, labelEnd_[labeled_v]);
            }
            j += jstep;
        }
    }

    // Recycle the blossom id.
    label_[b] = -1;
    labelEnd_[b] = -1;
    blossomChilds_[b].clear();
    blossomEndps_[b].clear();
    blossomBase_[b] = -1;
    blossomBestEdges_[b].clear();
    bestEdge_[b] = -1;
    unusedBlossoms_.push_back(b);
}

void
BlossomMatcher::augmentBlossom(int b, int v)
{
    // Bubble up from vertex v to an immediate sub-blossom of b.
    int t = v;
    while (blossomParent_[t] != b)
        t = blossomParent_[t];
    if (t >= nVertex_)
        augmentBlossom(t, v);

    int nchilds = static_cast<int>(blossomChilds_[b].size());
    auto child_at = [&](int j) {
        int m = j % nchilds;
        if (m < 0)
            m += nchilds;
        return blossomChilds_[b][m];
    };
    auto endp_at = [&](int j) {
        int m = j % nchilds;
        if (m < 0)
            m += nchilds;
        return blossomEndps_[b][m];
    };

    int i = 0;
    for (int c = 0; c < nchilds; c++) {
        if (blossomChilds_[b][c] == t) {
            i = c;
            break;
        }
    }
    int j = i;
    int jstep, endptrick;
    if (i & 1) {
        j -= nchilds;
        jstep = 1;
        endptrick = 0;
    } else {
        jstep = -1;
        endptrick = 1;
    }
    // Move along the blossom until we get to the base, matching
    // alternate edges on the way.
    while (j != 0) {
        j += jstep;
        t = child_at(j);
        int p = endp_at(j - endptrick) ^ endptrick;
        if (t >= nVertex_)
            augmentBlossom(t, endpoint_[p]);
        j += jstep;
        t = child_at(j);
        if (t >= nVertex_)
            augmentBlossom(t, endpoint_[p ^ 1]);
        mate_[endpoint_[p]] = p ^ 1;
        mate_[endpoint_[p ^ 1]] = p;
    }
    // Rotate the sub-blossom list so the new base is first.
    std::rotate(blossomChilds_[b].begin(),
                blossomChilds_[b].begin() + i, blossomChilds_[b].end());
    std::rotate(blossomEndps_[b].begin(), blossomEndps_[b].begin() + i,
                blossomEndps_[b].end());
    blossomBase_[b] = blossomBase_[blossomChilds_[b][0]];
    assert(blossomBase_[b] == v);
}

void
BlossomMatcher::augmentMatching(int k)
{
    int v = edges_[k].u;
    int w = edges_[k].v;
    const int starts[2][2] = {{v, 2 * k + 1}, {w, 2 * k}};
    for (const auto &start : starts) {
        int s = start[0];
        int p = start[1];
        // Match vertex s to remote endpoint p, then trace back to the
        // tree root, swapping matched and unmatched edges.
        while (true) {
            int bs = inBlossom_[s];
            assert(label_[bs] == 1);
            assert(labelEnd_[bs] == mate_[blossomBase_[bs]]);
            if (bs >= nVertex_)
                augmentBlossom(bs, s);
            mate_[s] = p;
            if (labelEnd_[bs] == -1)
                break;  // Reached a single vertex.
            int t = endpoint_[labelEnd_[bs]];
            int bt = inBlossom_[t];
            assert(label_[bt] == 2);
            assert(labelEnd_[bt] >= 0);
            s = endpoint_[labelEnd_[bt]];
            int j = endpoint_[labelEnd_[bt] ^ 1];
            assert(blossomBase_[bt] == t);
            if (bt >= nVertex_)
                augmentBlossom(bt, j);
            mate_[j] = labelEnd_[bt];
            p = labelEnd_[bt] ^ 1;
        }
    }
}

void
BlossomMatcher::verifyOptimum() const
{
    int64_t vdual_offset = 0;
    if (maxCardinality_) {
        int64_t min_dual = std::numeric_limits<int64_t>::max();
        for (int vtx = 0; vtx < nVertex_; vtx++)
            min_dual = std::min(min_dual, dualVar_[vtx]);
        vdual_offset = std::max<int64_t>(0, -min_dual);
    }
    for (int vtx = 0; vtx < nVertex_; vtx++) {
        ASTREA_CHECK(dualVar_[vtx] + vdual_offset >= 0,
                     "negative vertex dual");
        ASTREA_CHECK(mate_[vtx] >= 0 ||
                         dualVar_[vtx] + vdual_offset == 0,
                     "single vertex with nonzero dual");
    }
    for (int b = nVertex_; b < 2 * nVertex_; b++)
        ASTREA_CHECK(blossomBase_[b] < 0 || dualVar_[b] >= 0,
                     "negative blossom dual");
    for (int k = 0; k < nEdge_; k++) {
        int i = edges_[k].u;
        int j = edges_[k].v;
        int64_t s = dualVar_[i] + dualVar_[j] - 2 * weight_[k];
        // Add blossom duals for common enclosing blossoms.
        std::vector<int> ib{i}, jb{j};
        while (blossomParent_[ib.back()] != -1)
            ib.push_back(blossomParent_[ib.back()]);
        while (blossomParent_[jb.back()] != -1)
            jb.push_back(blossomParent_[jb.back()]);
        std::reverse(ib.begin(), ib.end());
        std::reverse(jb.begin(), jb.end());
        for (size_t z = 0; z < std::min(ib.size(), jb.size()); z++) {
            if (ib[z] != jb[z])
                break;
            s += 2 * dualVar_[ib[z]];
        }
        ASTREA_CHECK(s >= 0, "edge with negative slack");
        bool matched = (mate_[i] >= 0 && mate_[i] / 2 == k) ||
                       (mate_[j] >= 0 && mate_[j] / 2 == k);
        if (matched) {
            ASTREA_CHECK(mate_[i] / 2 == k && mate_[j] / 2 == k,
                         "half-matched edge");
            ASTREA_CHECK(s == 0, "matched edge with nonzero slack");
        }
    }
}

std::vector<int>
BlossomMatcher::solve()
{
    if (nEdge_ == 0)
        return std::vector<int>(nVertex_, -1);

    for (int stage = 0; stage < nVertex_; stage++) {
        // Stage: find an augmenting path and augment, or conclude.
        ASTREA_COUNTER_INC("blossom.stages");
        std::fill(label_.begin(), label_.end(), 0);
        std::fill(labelEnd_.begin(), labelEnd_.end(), -1);
        std::fill(bestEdge_.begin(), bestEdge_.end(), -1);
        for (int b = nVertex_; b < 2 * nVertex_; b++)
            blossomBestEdges_[b].clear();
        std::fill(allowEdge_.begin(), allowEdge_.end(), 0);
        queue_.clear();

        for (int v = 0; v < nVertex_; v++) {
            if (mate_[v] == -1 && label_[inBlossom_[v]] == 0)
                assignLabel(v, 1, -1);
        }

        bool augmented = false;
        while (true) {
            // Substage: scan the queue, growing the forest.
            while (!queue_.empty() && !augmented) {
                int v = queue_.back();
                queue_.pop_back();
                assert(label_[inBlossom_[v]] == 1);

                for (int p : neighbEnd_[v]) {
                    int k = p / 2;
                    int w = endpoint_[p];
                    if (inBlossom_[v] == inBlossom_[w])
                        continue;
                    int64_t kslack = 0;
                    if (!allowEdge_[k]) {
                        kslack = slack(k);
                        if (kslack <= 0)
                            allowEdge_[k] = 1;
                    }
                    if (allowEdge_[k]) {
                        if (label_[inBlossom_[w]] == 0) {
                            assignLabel(w, 2, p ^ 1);
                        } else if (label_[inBlossom_[w]] == 1) {
                            int base = scanBlossom(v, w);
                            if (base >= 0) {
                                addBlossom(base, k);
                            } else {
                                augmentMatching(k);
                                ASTREA_COUNTER_INC(
                                    "blossom.augmenting_paths");
                                augmented = true;
                                break;
                            }
                        } else if (label_[w] == 0) {
                            assert(label_[inBlossom_[w]] == 2);
                            label_[w] = 2;
                            labelEnd_[w] = p ^ 1;
                        }
                    } else if (label_[inBlossom_[w]] == 1) {
                        int b = inBlossom_[v];
                        if (bestEdge_[b] == -1 ||
                            kslack < slack(bestEdge_[b])) {
                            bestEdge_[b] = k;
                        }
                    } else if (label_[w] == 0) {
                        if (bestEdge_[w] == -1 ||
                            kslack < slack(bestEdge_[w])) {
                            bestEdge_[w] = k;
                        }
                    }
                }
            }
            if (augmented)
                break;

            // Compute the dual adjustment.
            int delta_type = -1;
            int64_t delta = 0;
            int delta_edge = -1;
            int delta_blossom = -1;

            if (!maxCardinality_) {
                delta_type = 1;
                delta = std::numeric_limits<int64_t>::max();
                for (int v = 0; v < nVertex_; v++)
                    delta = std::min(delta, dualVar_[v]);
            }
            for (int v = 0; v < nVertex_; v++) {
                if (label_[inBlossom_[v]] == 0 && bestEdge_[v] != -1) {
                    int64_t d = slack(bestEdge_[v]);
                    if (delta_type == -1 || d < delta) {
                        delta = d;
                        delta_type = 2;
                        delta_edge = bestEdge_[v];
                    }
                }
            }
            for (int b = 0; b < 2 * nVertex_; b++) {
                if (blossomParent_[b] == -1 && label_[b] == 1 &&
                    bestEdge_[b] != -1) {
                    int64_t kslack = slack(bestEdge_[b]);
                    assert(kslack % 2 == 0);
                    int64_t d = kslack / 2;
                    if (delta_type == -1 || d < delta) {
                        delta = d;
                        delta_type = 3;
                        delta_edge = bestEdge_[b];
                    }
                }
            }
            for (int b = nVertex_; b < 2 * nVertex_; b++) {
                if (blossomBase_[b] >= 0 && blossomParent_[b] == -1 &&
                    label_[b] == 2 &&
                    (delta_type == -1 || dualVar_[b] < delta)) {
                    delta = dualVar_[b];
                    delta_type = 4;
                    delta_blossom = b;
                }
            }
            if (delta_type == -1) {
                // No further improvement; max-cardinality optimum.
                delta_type = 1;
                int64_t min_dual = std::numeric_limits<int64_t>::max();
                for (int v = 0; v < nVertex_; v++)
                    min_dual = std::min(min_dual, dualVar_[v]);
                delta = std::max<int64_t>(0, min_dual);
            }

            // Update the dual variables.
            for (int v = 0; v < nVertex_; v++) {
                if (label_[inBlossom_[v]] == 1)
                    dualVar_[v] -= delta;
                else if (label_[inBlossom_[v]] == 2)
                    dualVar_[v] += delta;
            }
            for (int b = nVertex_; b < 2 * nVertex_; b++) {
                if (blossomBase_[b] >= 0 && blossomParent_[b] == -1) {
                    if (label_[b] == 1)
                        dualVar_[b] += delta;
                    else if (label_[b] == 2)
                        dualVar_[b] -= delta;
                }
            }

            if (delta_type == 1) {
                break;  // Optimum reached.
            } else if (delta_type == 2) {
                allowEdge_[delta_edge] = 1;
                int i = edges_[delta_edge].u;
                if (label_[inBlossom_[i]] == 0)
                    i = edges_[delta_edge].v;
                assert(label_[inBlossom_[i]] == 1);
                queue_.push_back(i);
            } else if (delta_type == 3) {
                allowEdge_[delta_edge] = 1;
                int i = edges_[delta_edge].u;
                assert(label_[inBlossom_[i]] == 1);
                queue_.push_back(i);
            } else {
                expandBlossom(delta_blossom, false);
            }
        }

        if (!augmented)
            break;

        // End of stage: expand all S-blossoms with zero dual.
        for (int b = nVertex_; b < 2 * nVertex_; b++) {
            if (blossomParent_[b] == -1 && blossomBase_[b] >= 0 &&
                label_[b] == 1 && dualVar_[b] == 0) {
                expandBlossom(b, true);
            }
        }
    }

    verifyOptimum();

    // Convert mate_ from endpoints to vertices.
    std::vector<int> result(nVertex_, -1);
    for (int v = 0; v < nVertex_; v++) {
        if (mate_[v] >= 0)
            result[v] = endpoint_[mate_[v]];
    }
    for (int v = 0; v < nVertex_; v++)
        assert(result[v] == -1 || result[result[v]] == v);
    return result;
}

} // namespace

std::vector<int>
maxWeightMatching(int num_vertices, const std::vector<MatchEdge> &edges,
                  bool max_cardinality)
{
    ASTREA_CHECK(num_vertices >= 0, "negative vertex count");
    BlossomMatcher matcher(num_vertices, edges, max_cardinality);
    return matcher.solve();
}

std::vector<int>
minWeightPerfectMatching(int num_vertices,
                         const std::function<int64_t(int, int)> &weight)
{
    ASTREA_CHECK(num_vertices % 2 == 0,
                 "perfect matching needs an even vertex count");
    if (num_vertices == 0)
        return {};

    // Reflect weights so minimizing becomes maximizing; with
    // max-cardinality the result is a perfect matching (the graph is
    // complete and even).
    int64_t max_w = 0;
    std::vector<MatchEdge> edges;
    edges.reserve(static_cast<size_t>(num_vertices) * (num_vertices - 1) /
                  2);
    for (int i = 0; i < num_vertices; i++) {
        for (int j = i + 1; j < num_vertices; j++) {
            int64_t w = weight(i, j);
            ASTREA_CHECK(w >= 0, "negative matching weight");
            max_w = std::max(max_w, w);
            edges.push_back({i, j, w});
        }
    }
    for (auto &e : edges)
        e.weight = max_w + 1 - e.weight;

    auto mate = maxWeightMatching(num_vertices, edges, true);
    for (int v = 0; v < num_vertices; v++)
        ASTREA_CHECK(mate[v] >= 0, "perfect matching is not perfect");
    return mate;
}

MatchingSolution
blossomMatchWithBoundary(
    int n, const std::function<int64_t(int, int)> &pair_weight,
    const std::function<int64_t(int)> &boundary_weight)
{
    MatchingSolution sol;
    if (n == 0)
        return sol;

    std::vector<int64_t> boundary(static_cast<size_t>(n));
    for (int i = 0; i < n; i++)
        boundary[static_cast<size_t>(i)] = boundary_weight(i);
    auto via_boundary = [&](int i, int j) {
        return boundary[static_cast<size_t>(i)] +
               boundary[static_cast<size_t>(j)];
    };

    // Node n, present for odd n, is the virtual boundary node.
    std::vector<int> mate = minWeightPerfectMatching(
        n + (n & 1), [&](int i, int j) -> int64_t {
            if (j == n)
                return boundary[static_cast<size_t>(i)];
            return std::min(pair_weight(i, j), via_boundary(i, j));
        });

    // Mate n marks the boundary from here on: split every pair that
    // is strictly cheaper through it.
    for (int i = 0; i < n; i++) {
        const int m = mate[static_cast<size_t>(i)];
        if (m > i && m < n && pair_weight(i, m) > via_boundary(i, m))
            mate[static_cast<size_t>(i)] = mate[static_cast<size_t>(m)] =
                n;
    }
    int64_t total = 0;
    sol.pairs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++) {
        const int m = mate[static_cast<size_t>(i)];
        if (m == n) {
            sol.pairs.push_back({i, -1});
            total += boundary[static_cast<size_t>(i)];
        } else if (m > i) {
            sol.pairs.push_back({i, m});
            total += pair_weight(i, m);
        }
    }
    sol.totalWeight = static_cast<double>(total);
    return sol;
}

int64_t
decadesToFixedPoint(double decades)
{
    if (!std::isfinite(decades))
        return kFixedPointNoPath;
    const int64_t w =
        static_cast<int64_t>(std::llround(decades * 1e6));
    return std::min(w, kFixedPointNoPath);
}

} // namespace astrea

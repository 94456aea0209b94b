#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "collectives/options.hpp"
#include "core/par_common.hpp"
#include "graph/edge_list.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// The Euler-tour technique — the PRAM toolbox's standard way to turn tree
/// computations into list computations, and the canonical *consumer* of
/// list ranking (the building block the paper's Section II discusses).
/// Composed here entirely from this library's own substrate:
///
///   spanning_tree_pgas -> build_euler_tour -> list_ranking_weighted_pgas
///
/// yields rooted-tree metrics (depth, subtree size, traversal order) with
/// O(log n) coalesced collective rounds.

/// The tour of a tree with n vertices has 2(n-1) arcs; arc 2e is the
/// "down" direction of tree edge e (parent-to-child once rooted), arc
/// 2e+1 the reverse.  succ[] chains the arcs into a single cycle broken
/// at the root (the last arc is its own successor).
struct EulerTour {
  std::size_t n = 0;
  std::uint64_t root = 0;
  std::vector<std::uint64_t> succ;      ///< size 2(n-1), arc -> next arc
  std::vector<std::uint64_t> arc_from;  ///< tail vertex of each arc
  std::vector<std::uint64_t> arc_to;    ///< head vertex of each arc
  std::vector<std::uint64_t> first_arc; ///< per vertex: first outgoing arc
                                        ///< in the tour (root: tour start)
  std::vector<std::uint64_t> arc_comp_root;  ///< per arc: the canonical
                                             ///< root vertex of its
                                             ///< component's list
  std::vector<std::uint64_t> comp_roots;     ///< every list's root (the
                                             ///< chosen root, other
                                             ///< components' minimum
                                             ///< vertex, isolated vertices)

  std::size_t arcs() const { return succ.size(); }
};

/// Build the tour from a tree/forest edge list.  Every component becomes
/// one self-terminated arc list: `root`'s component is rooted at `root`,
/// every other component at its minimum vertex (isolated vertices are
/// degenerate roots).  Throws if the edges contain a cycle.
EulerTour build_euler_tour(const graph::EdgeList& tree,
                           std::uint64_t root);

/// Rooted-forest metrics computed from the tour with the coalesced
/// weighted list ranking.  Every component is covered, rooted at its
/// comp_roots entry; `preorder` is component-local (each component's root
/// has preorder 0), so subtree(v) occupies the contiguous interval
/// [preorder(v), preorder(v) + subtree_size(v)) within its component —
/// the property the Tarjan-Vishkin biconnectivity algorithm builds on.
struct TreeMetrics {
  std::vector<std::uint64_t> depth;         ///< hops from the component root
  std::vector<std::uint64_t> subtree_size;  ///< vertices in the subtree
  std::vector<std::uint64_t> parent;        ///< parent[v]; roots: themselves
  std::vector<std::uint64_t> preorder;      ///< component-local preorder
  int ranking_rounds = 0;
  RunCosts costs;
};

TreeMetrics euler_tour_metrics(
    pgas::Runtime& rt, const EulerTour& tour,
    const coll::CollectiveOptions& opt = coll::CollectiveOptions::optimized());

/// A rooted spanning forest of a general graph with global preorder
/// positions: the prelude that biconnectivity and ear decomposition share.
/// The forest comes from spanning_tree_pgas (distributed Boruvka), its
/// metrics from euler_tour_metrics (two distributed rankings), and the
/// component-local preorders are packed side by side into `gp`, so every
/// subtree(v) is the interval [gp[v], gp[v] + subtree_size[v]) and never
/// crosses components.
struct RootedForest {
  std::vector<std::uint64_t> tree_ids;  ///< input edge id of forest edge t
  std::vector<std::uint8_t> is_tree;    ///< per input edge
  graph::EdgeList tree;                 ///< the forest edges, in t order
  TreeMetrics tm;
  std::vector<std::uint64_t> gp;  ///< global preorder position per vertex
  RunCosts costs;                 ///< both distributed phases

  /// The child endpoint v of forest edge t = (parent(v), v).
  std::uint64_t child(std::size_t t) const {
    const auto& e = tree.edges[t];
    return tm.parent[e.v] == e.u ? e.v : e.u;
  }
};

RootedForest rooted_spanning_forest(pgas::Runtime& rt,
                                    const graph::EdgeList& el,
                                    const coll::CollectiveOptions& opt);

/// Static range-min or range-max over an array (e.g. indexed by
/// RootedForest::gp, to query subtree intervals): O(n log n) sparse table.
class SparseTable {
 public:
  SparseTable(const std::vector<std::uint64_t>& a, bool take_min)
      : min_(take_min) {
    const std::size_t n = a.size();
    levels_ = n < 2 ? 1 : std::bit_width(n - 1) + 1;
    table_.assign(levels_, a);
    for (std::size_t k = 1; k < levels_; ++k) {
      const std::size_t half = 1ull << (k - 1);
      for (std::size_t i = 0; i + (1ull << k) <= n; ++i)
        table_[k][i] = pick(table_[k - 1][i], table_[k - 1][i + half]);
    }
  }

  /// Query over the inclusive range [lo, hi].
  std::uint64_t query(std::size_t lo, std::size_t hi) const {
    assert(lo <= hi && hi < table_[0].size());
    const std::size_t k =
        lo == hi ? 0 : std::bit_width(hi - lo + 1) - 1;
    return pick(table_[k][lo], table_[k][hi + 1 - (1ull << k)]);
  }

 private:
  std::uint64_t pick(std::uint64_t a, std::uint64_t b) const {
    return min_ ? std::min(a, b) : std::max(a, b);
  }
  bool min_;
  std::size_t levels_;
  std::vector<std::vector<std::uint64_t>> table_;
};

/// Sequential ground truth (DFS over every component, rooted the same way
/// as build_euler_tour: `root`'s component at root, the rest at their
/// minimum vertex).  `preorder` is left as the DFS's own visit order — a
/// valid preorder but not necessarily the tour's (tests compare its
/// interval properties, not raw values).
TreeMetrics tree_metrics_sequential(const graph::EdgeList& tree,
                                    std::uint64_t root);

}  // namespace pgraph::core

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace pgraph::pgas {

/// Cluster topology: `nodes` SMP nodes, each running `threads_per_node` UPC
/// threads.  UPC presents the s = nodes * threads_per_node threads as a flat
/// sequence 0..s-1 (the paper discusses the limitations of this flatness);
/// thread i runs on node i / threads_per_node.
///
/// Degraded mode: after a permanent node loss the runtime remaps every
/// thread hosted by the dead node onto its buddy (`remap_node`).  The live
/// `owner` map then overrides the block arithmetic; while it is empty (the
/// common, fault-free case) `node_of` stays the original division and the
/// struct still supports aggregate init `Topology{nodes, tpn}`.
struct Topology {
  int nodes = 1;
  int threads_per_node = 1;
  /// Live thread -> node map; empty means the identity block layout.
  std::vector<std::int32_t> owner;
  /// Shrinks so far (`remap_node` calls).  Layers whose state a shrink
  /// invalidates (the collectives' skip cache, the loss throw, the
  /// server's recovery poll) compare this count instead of being told.
  int shrinks = 0;

  int total_threads() const { return nodes * threads_per_node; }

  int node_of(int thread) const {
    assert(thread >= 0 && thread < total_threads());
    if (!owner.empty()) return owner[static_cast<std::size_t>(thread)];
    return thread / threads_per_node;
  }

  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// thread -> node map (used by the exchange simulator).
  std::vector<std::int32_t> thread_node_map() const {
    std::vector<std::int32_t> m(static_cast<std::size_t>(total_threads()));
    for (int i = 0; i < total_threads(); ++i)
      m[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(node_of(i));
    return m;
  }

  /// A node is alive while at least one thread resolves to it.
  bool node_alive(int node) const {
    for (int t = 0; t < total_threads(); ++t)
      if (node_of(t) == node) return true;
    return false;
  }

  int live_node_count() const {
    int live = 0;
    for (int n = 0; n < nodes; ++n)
      if (node_alive(n)) ++live;
    return live;
  }

  /// Number of threads currently hosted by `node` (0 if dead).
  int threads_on_node(int node) const {
    int c = 0;
    for (int t = 0; t < total_threads(); ++t)
      if (node_of(t) == node) ++c;
    return c;
  }

  /// Lowest-id thread hosted by `node`, or -1 if the node is dead.  With an
  /// identity layout this is node * threads_per_node, which is what the
  /// hierarchical collectives used to hard-code.
  int leader_of_node(int node) const {
    for (int t = 0; t < total_threads(); ++t)
      if (node_of(t) == node) return t;
    return -1;
  }

  /// First live node scanning backwards (with wrap-around) from `node` - 1.
  /// Buddy replication mirrors node j's partitions on prev_live_node(j), so
  /// this is where a dead node's mirror lives.  Returns -1 when no other
  /// node is alive.
  int prev_live_node(int node) const {
    for (int step = 1; step < nodes; ++step) {
      const int cand = (node - step + nodes) % nodes;
      if (cand != node && node_alive(cand)) return cand;
    }
    return -1;
  }

  /// Remap every thread hosted by `dead` onto `to` (the buddy adopts them).
  /// Lazily materializes the owner map from the identity layout.
  void remap_node(int dead, int to) {
    assert(dead >= 0 && dead < nodes && to >= 0 && to < nodes && dead != to);
    if (owner.empty()) {
      owner.resize(static_cast<std::size_t>(total_threads()));
      for (int t = 0; t < total_threads(); ++t)
        owner[static_cast<std::size_t>(t)] =
            static_cast<std::int32_t>(t / threads_per_node);
    }
    for (auto& o : owner)
      if (o == static_cast<std::int32_t>(dead))
        o = static_cast<std::int32_t>(to);
    ++shrinks;
  }

  static Topology single_node(int threads) {
    return Topology{1, threads, {}};
  }
  static Topology cluster(int nodes, int threads) {
    return Topology{nodes, threads, {}};
  }
};

}  // namespace pgraph::pgas

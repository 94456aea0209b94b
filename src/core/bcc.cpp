#include "core/bcc.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "core/cc_coalesced.hpp"
#include "core/cc_seq.hpp"
#include "core/euler_tour.hpp"

namespace pgraph::core {

namespace {

/// Compute the number of distinct blocks and the articulation vertices
/// from per-edge block labels: a vertex is an articulation point iff its
/// incident edges span >= 2 distinct blocks.
void finish_result(const graph::EdgeList& el, BccResult& r) {
  std::unordered_set<std::uint64_t> blocks(r.edge_block.begin(),
                                           r.edge_block.end());
  r.num_blocks = blocks.size();
  r.is_articulation.assign(el.n, 0);
  // First incident block per vertex; a second distinct one marks it.
  std::vector<std::uint64_t> first(el.n, UINT64_MAX);
  for (std::size_t e = 0; e < el.m(); ++e) {
    for (const std::uint64_t v : {el.edges[e].u, el.edges[e].v}) {
      if (first[v] == UINT64_MAX)
        first[v] = r.edge_block[e];
      else if (first[v] != r.edge_block[e])
        r.is_articulation[v] = 1;
    }
  }
}

}  // namespace

BccResult bcc_pgas(pgas::Runtime& rt, const graph::EdgeList& el,
                   const coll::CollectiveOptions& opt) {
  for (const auto& e : el.edges)
    if (e.u == e.v)
      throw std::invalid_argument("bcc_pgas: self loops are not supported");

  BccResult r;
  r.edge_block.assign(el.m(), UINT64_MAX);
  if (el.m() == 0) {
    r.is_articulation.assign(el.n, 0);
    return r;
  }

  // --- phases 1-2: spanning forest (distributed Boruvka), its Euler tour
  // metrics (two distributed rankings) and global preorder positions. -----
  const RootedForest f = rooted_spanning_forest(rt, el, opt);
  r.costs += f.costs;
  const TreeMetrics& tm = f.tm;
  const std::vector<std::uint64_t>& gp = f.gp;
  const std::vector<std::uint8_t>& is_tree = f.is_tree;
  const std::size_t nt = f.tree.m();

  // Map each non-root vertex to its tree edge e^(v) = (parent(v), v).
  std::vector<std::uint64_t> vertex_edge(el.n, UINT64_MAX);
  for (std::size_t t = 0; t < nt; ++t) {
    const std::uint64_t child = f.child(t);
    [[maybe_unused]] const auto& e = f.tree.edges[t];
    assert(tm.parent[child] == (child == e.v ? e.u : e.v));
    vertex_edge[child] = t;
  }

  // --- phase 3: low/high over preorder intervals (local sparse tables). --
  std::vector<std::uint64_t> amin(el.n), amax(el.n);
  for (std::size_t p = 0; p < el.n; ++p) amin[p] = amax[p] = p;
  for (std::size_t e = 0; e < el.m(); ++e) {
    if (is_tree[e]) continue;
    const std::uint64_t a = gp[el.edges[e].u], b = gp[el.edges[e].v];
    amin[a] = std::min(amin[a], b);
    amin[b] = std::min(amin[b], a);
    amax[a] = std::max(amax[a], b);
    amax[b] = std::max(amax[b], a);
  }
  const SparseTable tmin(amin, true), tmax(amax, false);
  const auto low = [&](std::uint64_t v) {
    return tmin.query(gp[v], gp[v] + tm.subtree_size[v] - 1);
  };
  const auto high = [&](std::uint64_t v) {
    return tmax.query(gp[v], gp[v] + tm.subtree_size[v] - 1);
  };

  // --- phase 4: the Tarjan-Vishkin auxiliary graph over tree edges. ------
  graph::EdgeList aux;
  aux.n = nt;
  aux.edges.reserve(el.m());
  // Rule 1: each nontree edge {u, w} with u, w unrelated in the forest
  // joins e^(u) and e^(w).
  for (std::size_t e = 0; e < el.m(); ++e) {
    if (is_tree[e]) continue;
    std::uint64_t u = el.edges[e].u, w = el.edges[e].v;
    if (gp[u] > gp[w]) std::swap(u, w);
    if (gp[u] + tm.subtree_size[u] <= gp[w])
      aux.edges.push_back({vertex_edge[u], vertex_edge[w]});
  }
  // Rule 2: tree edge (v, w), v = parent(w), v not a component root's
  // *own* position is fine — it joins e^(w) and e^(v) when subtree(w)
  // escapes v's interval via a nontree edge.
  for (std::size_t t = 0; t < nt; ++t) {
    const std::uint64_t w = f.child(t);
    const std::uint64_t v = tm.parent[w];
    if (tm.parent[v] == v) continue;  // v is a component root: no e^(v)
    if (low(w) < gp[v] || high(w) >= gp[v] + tm.subtree_size[v])
      aux.edges.push_back({vertex_edge[w], vertex_edge[v]});
  }

  // --- phase 5: blocks = connected components of the auxiliary graph,
  // computed with the coalesced CC (distributed). -------------------------
  CcOptions ccopt;
  ccopt.coll = opt;
  ccopt.compact = true;
  const auto aux_cc = cc_coalesced(rt, aux, ccopt);
  r.costs += aux_cc.costs;

  // --- assignment: edge {u, w} -> the label of e^(the endpoint with the
  // larger preorder).  For a tree edge that is the child, so the label is
  // the edge's own; for a back edge it is the descendant; for a cross edge
  // rule 1 made both equal.
  for (std::size_t e = 0; e < el.m(); ++e) {
    const std::uint64_t u = el.edges[e].u, w = el.edges[e].v;
    const std::uint64_t deeper = gp[u] > gp[w] ? u : w;
    r.edge_block[e] = aux_cc.labels[vertex_edge[deeper]];
  }
  finish_result(el, r);
  return r;
}

BccResult bcc_sequential(const graph::EdgeList& el) {
  for (const auto& e : el.edges)
    if (e.u == e.v)
      throw std::invalid_argument("bcc_sequential: self loops unsupported");

  BccResult r;
  r.edge_block.assign(el.m(), UINT64_MAX);

  // Adjacency with edge ids.
  std::vector<std::size_t> off(el.n + 1, 0);
  for (const auto& e : el.edges) {
    ++off[e.u + 1];
    ++off[e.v + 1];
  }
  for (std::size_t i = 1; i <= el.n; ++i) off[i] += off[i - 1];
  std::vector<std::pair<std::uint64_t, std::uint64_t>> adj(2 * el.m());
  {
    std::vector<std::size_t> cur(off.begin(), off.end() - 1);
    for (std::size_t e = 0; e < el.m(); ++e) {
      adj[cur[el.edges[e].u]++] = {el.edges[e].v, e};
      adj[cur[el.edges[e].v]++] = {el.edges[e].u, e};
    }
  }

  // Iterative Hopcroft-Tarjan with an explicit edge stack.
  constexpr std::uint64_t kUnset = UINT64_MAX;
  std::vector<std::uint64_t> disc(el.n, kUnset), low(el.n, 0);
  std::vector<std::size_t> it(el.n, 0);       // adjacency cursor
  std::vector<std::uint64_t> parent_edge(el.n, kUnset);
  std::vector<std::uint64_t> estack;          // edge ids
  std::uint64_t timer = 0, next_block = 0;

  struct Frame {
    std::uint64_t v;
  };
  std::vector<Frame> stack;

  for (std::uint64_t root = 0; root < el.n; ++root) {
    if (disc[root] != kUnset) continue;
    disc[root] = low[root] = timer++;
    stack.push_back({root});
    while (!stack.empty()) {
      const std::uint64_t v = stack.back().v;
      if (it[v] < off[v + 1] - off[v]) {
        const auto [w, eid] = adj[off[v] + it[v]++];
        if (eid == parent_edge[v]) continue;
        if (disc[w] == kUnset) {
          estack.push_back(eid);
          disc[w] = low[w] = timer++;
          parent_edge[w] = eid;
          stack.push_back({w});
        } else if (disc[w] < disc[v]) {
          estack.push_back(eid);  // back edge
          low[v] = std::min(low[v], disc[w]);
        }
      } else {
        stack.pop_back();
        if (stack.empty()) break;
        const std::uint64_t p = stack.back().v;
        low[p] = std::min(low[p], low[v]);
        if (low[v] >= disc[p]) {
          // Pop one block, ending with the tree edge (p, v).
          const std::uint64_t pe = parent_edge[v];
          const std::uint64_t block = next_block++;
          for (;;) {
            assert(!estack.empty());
            const std::uint64_t e = estack.back();
            estack.pop_back();
            r.edge_block[e] = block;
            if (e == pe) break;
          }
        }
      }
    }
  }
  assert(estack.empty());
  finish_result(el, r);
  return r;
}

bool same_blocks(const BccResult& a, const BccResult& b) {
  return same_partition(a.edge_block, b.edge_block) &&
         a.is_articulation == b.is_articulation &&
         a.num_blocks == b.num_blocks;
}

}  // namespace pgraph::core

#include "core/euler_tour.hpp"

#include <cassert>
#include <stdexcept>

#include "core/dsu.hpp"
#include "core/list_ranking.hpp"
#include "core/mst_pgas.hpp"

namespace pgraph::core {

EulerTour build_euler_tour(const graph::EdgeList& tree, std::uint64_t root) {
  const std::size_t n = tree.n;
  if (root >= n) throw std::invalid_argument("build_euler_tour: bad root");
  {
    Dsu acyclic(n);
    for (const auto& e : tree.edges)
      if (!acyclic.unite(e.u, e.v))
        throw std::invalid_argument("build_euler_tour: edges contain a cycle");
  }

  EulerTour t;
  t.n = n;
  t.root = root;
  const std::size_t arcs = 2 * tree.m();
  t.succ.assign(arcs, 0);
  t.arc_from.assign(arcs, 0);
  t.arc_to.assign(arcs, 0);
  t.first_arc.assign(n, UINT64_MAX);
  t.arc_comp_root.assign(arcs, 0);

  // Adjacency of outgoing arcs per vertex (arc 2e: u->v, 2e+1: v->u).
  std::vector<std::size_t> off(n + 1, 0);
  for (const auto& e : tree.edges) {
    ++off[e.u + 1];
    ++off[e.v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) off[i] += off[i - 1];
  std::vector<std::uint64_t> out(arcs);
  std::vector<std::size_t> pos_in_adj(arcs);  // position of arc in from's list
  {
    std::vector<std::size_t> cur(off.begin(), off.end() - 1);
    for (std::size_t e = 0; e < tree.m(); ++e) {
      const auto& ed = tree.edges[e];
      t.arc_from[2 * e] = ed.u;
      t.arc_to[2 * e] = ed.v;
      t.arc_from[2 * e + 1] = ed.v;
      t.arc_to[2 * e + 1] = ed.u;
      pos_in_adj[2 * e] = cur[ed.u];
      out[cur[ed.u]++] = 2 * e;
      pos_in_adj[2 * e + 1] = cur[ed.v];
      out[cur[ed.v]++] = 2 * e + 1;
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    if (off[v] != off[v + 1]) t.first_arc[v] = out[off[v]];

  // Classic tour successor: succ(u->v) = the arc after (v->u) in v's
  // circular adjacency.  This chains every component's arcs into one cycle.
  for (std::size_t a = 0; a < arcs; ++a) {
    const std::uint64_t rev = a ^ 1ull;
    const std::uint64_t v = t.arc_from[rev];
    const std::size_t p = pos_in_adj[rev];
    const std::size_t next_p = p + 1 < off[v + 1] ? p + 1 : off[v];
    t.succ[a] = out[next_p];
  }

  // Break each component's cycle into a list at its root: terminate the
  // arc whose successor is the root's first outgoing arc (by construction
  // the reverse of the arc before it in the root's circular adjacency).
  const auto break_at = [&](std::uint64_t v) {
    const std::uint64_t start = t.first_arc[v];
    if (start == UINT64_MAX) return;
    const std::size_t p = pos_in_adj[start];
    const std::size_t prev_p = p == off[v] ? off[v + 1] - 1 : p - 1;
    const std::uint64_t last = out[prev_p] ^ 1ull;  // (x->v) arriving arc
    assert(t.succ[last] == start);
    t.succ[last] = last;  // tail
  };

  // Component roots: `root` for its own component, the minimum vertex for
  // every other component with edges, and every isolated vertex.
  {
    Dsu comp(n);
    for (const auto& e : tree.edges) comp.unite(e.u, e.v);
    const auto root_rep = comp.find(root);
    std::vector<std::uint64_t> canon(n, UINT64_MAX);
    canon[root_rep] = root;
    for (std::size_t v = 0; v < n; ++v) {
      const auto r = comp.find(v);
      if (canon[r] == UINT64_MAX) canon[r] = v;  // minimum v per component
    }
    for (std::size_t a = 0; a < arcs; ++a)
      t.arc_comp_root[a] = canon[comp.find(t.arc_from[a])];
    std::vector<bool> seen(n, false);
    for (std::size_t v = 0; v < n; ++v) {
      const auto c = canon[comp.find(v)];
      if (!seen[c]) {
        seen[c] = true;
        t.comp_roots.push_back(c);
        break_at(c);
      }
    }
  }
  return t;
}

TreeMetrics euler_tour_metrics(pgas::Runtime& rt, const EulerTour& tour,
                               const coll::CollectiveOptions& opt) {
  TreeMetrics m;
  const std::size_t n = tour.n;
  m.depth.assign(n, UINT64_MAX);
  m.subtree_size.assign(n, 0);
  m.parent.assign(n, UINT64_MAX);
  m.preorder.assign(n, UINT64_MAX);
  for (const auto r : tour.comp_roots) {
    m.depth[r] = 0;
    m.parent[r] = r;
    m.subtree_size[r] = 1;  // refined below for components with edges
    m.preorder[r] = 0;
  }
  if (tour.arcs() == 0) return m;

  // Phase 1: unit-weight ranking orients the arcs — (u->v) is downward iff
  // it appears before its reverse, i.e. has the larger suffix count.
  const auto r1 = list_ranking_pgas(rt, tour.succ, opt);
  m.costs += r1.costs;
  m.ranking_rounds = r1.rounds;

  // Phase 2: +1 on down arcs, -1 (two's complement) on up arcs; the
  // exclusive suffix sum then gives -depth at each down arc.
  std::vector<std::uint64_t> w(tour.arcs());
  for (std::size_t e = 0; e < tour.arcs() / 2; ++e) {
    const bool down_is_even = r1.ranks[2 * e] > r1.ranks[2 * e + 1];
    w[2 * e] = down_is_even ? 1 : ~0ull;      // +1 / -1
    w[2 * e + 1] = down_is_even ? ~0ull : 1;  // the reverse
  }
  const auto r2 = list_ranking_weighted_pgas(rt, tour.succ, w, opt);
  m.costs += r2.costs;
  m.ranking_rounds += r2.rounds;

  // Per-component arc counts (= rank of the component's first arc + 1).
  std::vector<std::uint64_t> comp_arcs(n, 0);
  for (const auto r : tour.comp_roots)
    if (tour.first_arc[r] != UINT64_MAX)
      comp_arcs[r] = r1.ranks[tour.first_arc[r]] + 1;
  for (const auto r : tour.comp_roots)
    m.subtree_size[r] = comp_arcs[r] / 2 + 1;

  // Assemble metrics from the two rankings (a local linear pass).
  for (std::size_t e = 0; e < tour.arcs() / 2; ++e) {
    const std::uint64_t down = w[2 * e] == 1 ? 2 * e : 2 * e + 1;
    const std::uint64_t up = down ^ 1ull;
    const std::uint64_t child = tour.arc_to[down];
    const std::uint64_t croot = tour.arc_comp_root[down];
    assert(child != croot);  // a true down arc never re-enters the root
    m.parent[child] = tour.arc_from[down];
    // Exclusive suffix of the +1/-1 weights after the down arc is
    // -depth(child): everything below closes its own brackets, and
    // depth(child) up-arcs remain unmatched.
    m.depth[child] = 0 - r2.ranks[down];
    m.subtree_size[child] = (r1.ranks[down] - r1.ranks[up]) / 2 + 1;
    // Position of the down arc within its component's list, then count the
    // down arcs in the inclusive prefix: (pos + 1 + depth) / 2 = preorder.
    const std::uint64_t pos = comp_arcs[croot] - 1 - r1.ranks[down];
    m.preorder[child] = (pos + 1 + m.depth[child]) / 2;
  }
  return m;
}

RootedForest rooted_spanning_forest(pgas::Runtime& rt,
                                    const graph::EdgeList& el,
                                    const coll::CollectiveOptions& opt) {
  RootedForest f;
  MstOptions mopt;
  mopt.coll = opt;
  const auto st = spanning_tree_pgas(rt, el, mopt);
  f.costs += st.costs;
  f.tree_ids = st.edges;
  f.is_tree.assign(el.m(), 0);
  f.tree.n = el.n;
  for (const auto id : st.edges) {
    f.tree.edges.push_back(el.edges[id]);
    f.is_tree[id] = 1;
  }
  f.tm = euler_tour_metrics(rt, build_euler_tour(f.tree, 0), opt);
  f.costs += f.tm.costs;

  std::vector<std::uint64_t> comp_of(el.n), comp_offset(el.n, 0);
  {
    Dsu comp(el.n);
    for (const auto& e : f.tree.edges) comp.unite(e.u, e.v);
    for (std::size_t v = 0; v < el.n; ++v) comp_of[v] = comp.find(v);
    std::vector<std::uint64_t> sizes(el.n, 0);
    for (std::size_t v = 0; v < el.n; ++v) ++sizes[comp_of[v]];
    std::uint64_t off = 0;
    for (std::size_t c = 0; c < el.n; ++c) {
      comp_offset[c] = off;
      off += sizes[c];
    }
  }
  f.gp.resize(el.n);
  for (std::size_t v = 0; v < el.n; ++v)
    f.gp[v] = comp_offset[comp_of[v]] + f.tm.preorder[v];
  return f;
}

TreeMetrics tree_metrics_sequential(const graph::EdgeList& tree,
                                    std::uint64_t root) {
  const std::size_t n = tree.n;
  TreeMetrics m;
  m.depth.assign(n, UINT64_MAX);
  m.subtree_size.assign(n, 0);
  m.parent.assign(n, UINT64_MAX);
  m.preorder.assign(n, UINT64_MAX);

  std::vector<std::size_t> off(n + 1, 0);
  for (const auto& e : tree.edges) {
    ++off[e.u + 1];
    ++off[e.v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) off[i] += off[i - 1];
  std::vector<std::uint64_t> adj(2 * tree.m());
  {
    std::vector<std::size_t> cur(off.begin(), off.end() - 1);
    for (const auto& e : tree.edges) {
      adj[cur[e.u]++] = e.v;
      adj[cur[e.v]++] = e.u;
    }
  }

  // Component roots, matching build_euler_tour's convention.
  Dsu comp(n);
  for (const auto& e : tree.edges) comp.unite(e.u, e.v);
  const auto root_rep = comp.find(root);
  std::vector<std::uint64_t> canon(n, UINT64_MAX);
  canon[root_rep] = root;
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = comp.find(v);
    if (canon[r] == UINT64_MAX) canon[r] = v;
  }

  std::vector<std::uint64_t> stack, order;
  order.reserve(n);
  std::vector<bool> rooted(n, false);
  for (std::size_t v0 = 0; v0 < n; ++v0) {
    const std::uint64_t r = canon[comp.find(v0)];
    if (rooted[r]) continue;
    rooted[r] = true;
    m.depth[r] = 0;
    m.parent[r] = r;
    std::uint64_t pre = 0;
    stack.assign(1, r);
    const std::size_t comp_begin = order.size();
    while (!stack.empty()) {
      const std::uint64_t v = stack.back();
      stack.pop_back();
      order.push_back(v);
      m.preorder[v] = pre++;
      for (std::size_t k = off[v]; k < off[v + 1]; ++k) {
        const std::uint64_t u = adj[k];
        if (m.depth[u] != UINT64_MAX) continue;
        m.depth[u] = m.depth[v] + 1;
        m.parent[u] = v;
        stack.push_back(u);
      }
    }
    for (std::size_t k = order.size(); k-- > comp_begin;) {
      const std::uint64_t v = order[k];
      m.subtree_size[v] += 1;
      if (v != r) m.subtree_size[m.parent[v]] += m.subtree_size[v];
    }
  }
  return m;
}

}  // namespace pgraph::core

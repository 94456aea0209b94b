#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "graph/rng.hpp"

namespace pgraph::graph {

namespace {

/// Throw unless m unique edges fit on n vertices (n(n-1)/2, in double so a
/// large n cannot overflow): the unique-edge draws below would never end.
void check_simple_bound(const char* generator, std::size_t n, std::size_t m) {
  if (static_cast<double>(m) >
      0.5 * static_cast<double>(n) * static_cast<double>(n - 1))
    throw std::invalid_argument(std::string(generator) +
                                ": m exceeds simple-graph bound");
}

}  // namespace

WEdgeList with_random_weights(const EdgeList& el, std::uint64_t seed,
                              Weight max_w) {
  WEdgeList wl;
  wl.n = el.n;
  wl.edges.reserve(el.edges.size());
  for (std::size_t i = 0; i < el.edges.size(); ++i) {
    std::uint64_t st = seed ^ (0x51ed270b2f6c92b5ULL * (i + 1));
    const Weight w = splitmix64(st) % max_w;
    wl.edges.push_back({el.edges[i].u, el.edges[i].v, w});
  }
  return wl;
}

EdgeList random_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("random_graph: need n >= 2");
  if (n > (1ULL << 32)) throw std::invalid_argument("random_graph: n too large");
  check_simple_bound("random_graph", n, m);

  EdgeList el;
  el.n = n;
  el.edges.reserve(m);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  Xoshiro256 rng(seed);
  while (el.edges.size() < m) {
    const VertexId u = rng.next_below(n);
    const VertexId v = rng.next_below(n);
    if (u == v) continue;
    if (!seen.insert(pair_key(u, v)).second) continue;
    el.edges.push_back({u, v});
  }
  return el;
}

EdgeList rmat_graph(std::size_t n, std::size_t m, std::uint64_t seed,
                    const RmatParams& p) {
  if (n < 2) throw std::invalid_argument("rmat_graph: need n >= 2");
  std::size_t levels = 0;
  std::size_t pot = 1;
  while (pot < n) {
    pot <<= 1;
    ++levels;
  }
  const double d = 1.0 - p.a - p.b - p.c;
  if (!(p.a >= 0 && p.b >= 0 && p.c >= 0 && d >= 0))  // NaN fails too
    throw std::invalid_argument("rmat_graph: invalid quadrant probabilities");
  // Without the off-diagonal quadrants u and v agree on every bit.
  if (p.b + p.c == 0)
    throw std::invalid_argument("rmat_graph: b + c == 0 draws only self-loops");
  const double ab = p.a + p.b;
  const double abc = p.a + p.b + p.c;
  if (p.dedupe) {
    // Unique pairs the draws can reach (in double, as check_simple_bound):
    // each level lands in one of q quadrants, q_diag of them (a and d)
    // keep u's and v's bits equal, and with both b and c drawable (u, v)
    // and (v, u) are one pair.  With all four it is pot(pot-1)/2.
    const int q_diag = (p.a > 0) + (abc < 1);
    const int q = q_diag + (ab > p.a) + (abc > ab);
    const double lv = static_cast<double>(levels);
    double reachable = std::pow(q, lv) - std::pow(q_diag, lv);
    if (ab > p.a && abc > ab) reachable /= 2;
    if (static_cast<double>(m) > reachable)
      throw std::invalid_argument(
          "rmat_graph: m exceeds the pairs its quadrant weights reach");
  }

  EdgeList el;
  el.n = pot;
  el.edges.reserve(m);
  std::unordered_set<std::uint64_t> seen;
  if (p.dedupe) seen.reserve(m * 2);
  Xoshiro256 rng(seed);
  while (el.edges.size() < m) {
    VertexId u = 0, v = 0;
    for (std::size_t l = 0; l < levels; ++l) {
      const double r = rng.next_double();
      // Quadrants: a = (0,0), b = (0,1), c = (1,0), d = (1,1).
      if (r < p.a) {
      } else if (r < ab) {
        v |= (1ULL << l);
      } else if (r < abc) {
        u |= (1ULL << l);
      } else {
        u |= (1ULL << l);
        v |= (1ULL << l);
      }
    }
    if (u == v) continue;
    if (p.dedupe && !seen.insert(pair_key(u, v)).second) continue;
    el.edges.push_back({u, v});
  }
  return el;
}

EdgeList hybrid_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  if (n < 16) throw std::invalid_argument("hybrid_graph: need n >= 16");
  check_simple_bound("hybrid_graph", n, m);
  Xoshiro256 rng(seed);

  // Pick the 2*sqrt(n) core vertices at random (distinct).
  std::size_t core = 2 * static_cast<std::size_t>(std::max(
                             1.0, std::sqrt(static_cast<double>(n))));
  core = std::min(core, n);
  std::unordered_set<VertexId> core_set;
  core_set.reserve(core * 2);
  std::vector<VertexId> core_vs;
  core_vs.reserve(core);
  while (core_vs.size() < core) {
    const VertexId v = rng.next_below(n);
    if (core_set.insert(v).second) core_vs.push_back(v);
  }

  EdgeList el;
  el.n = n;
  el.edges.reserve(m);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);

  // Scale-free core: preferential attachment (Barabasi-Albert style) using
  // the repeated-endpoints trick.  With `links` attachments per arriving
  // vertex the max degree is ~ links * sqrt(core); links is scaled so hubs
  // reach the Theta(sqrt(n)) degree the paper relies on for its
  // load-balance discussion.
  const std::size_t links = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::sqrt(std::sqrt(
             static_cast<double>(n)))));
  std::vector<VertexId> endpoints;
  endpoints.reserve(core * 2 * links);
  if (core >= 2) {
    // Seed with one edge between the first two core vertices.
    if (seen.insert(pair_key(core_vs[0], core_vs[1])).second) {
      el.edges.push_back({core_vs[0], core_vs[1]});
      endpoints.push_back(core_vs[0]);
      endpoints.push_back(core_vs[1]);
    }
    for (std::size_t i = 2; i < core && el.edges.size() < m; ++i) {
      const VertexId nu = core_vs[i];
      for (std::size_t link = 0; link < links && el.edges.size() < m;
           ++link) {
        const VertexId tgt = endpoints[rng.next_below(endpoints.size())];
        if (tgt == nu) continue;
        if (!seen.insert(pair_key(nu, tgt)).second) continue;
        el.edges.push_back({nu, tgt});
        endpoints.push_back(nu);
        endpoints.push_back(tgt);
      }
    }
  }

  // Random fill over all n vertices until m edges.
  while (el.edges.size() < m) {
    const VertexId u = rng.next_below(n);
    const VertexId v = rng.next_below(n);
    if (u == v) continue;
    if (!seen.insert(pair_key(u, v)).second) continue;
    el.edges.push_back({u, v});
  }
  return el;
}

EdgeList path_graph(std::size_t n) {
  EdgeList el;
  el.n = n;
  if (n >= 2) el.edges.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    el.edges.push_back({i, i + 1});
  return el;
}

EdgeList cycle_graph(std::size_t n) {
  EdgeList el = path_graph(n);
  if (n >= 3) el.edges.push_back({n - 1, 0});
  return el;
}

EdgeList star_graph(std::size_t n) {
  EdgeList el;
  el.n = n;
  if (n >= 2) el.edges.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) el.edges.push_back({0, i});
  return el;
}

EdgeList grid_graph(std::size_t rows, std::size_t cols) {
  EdgeList el;
  el.n = rows * cols;
  el.edges.reserve(2 * rows * cols);
  const auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) el.edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) el.edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return el;
}

EdgeList disjoint_cliques(std::size_t k, std::size_t sz) {
  EdgeList el;
  el.n = k * sz;
  el.edges.reserve(k * sz * (sz - 1) / 2);
  for (std::size_t g = 0; g < k; ++g) {
    const std::size_t base = g * sz;
    for (std::size_t i = 0; i < sz; ++i)
      for (std::size_t j = i + 1; j < sz; ++j)
        el.edges.push_back({base + i, base + j});
  }
  return el;
}

TemporalStream temporal_stream(std::size_t n, std::size_t n_ops,
                               std::uint64_t seed,
                               const TemporalStreamParams& p) {
  if (n < 2) throw std::invalid_argument("temporal_stream: need n >= 2");
  if (p.delete_frac < 0.0 || p.delete_frac >= 1.0)
    throw std::invalid_argument("temporal_stream: delete_frac in [0, 1)");

  TemporalStream ts;
  switch (p.base) {
    case TemporalBase::Rmat: {
      RmatParams rp = p.rmat;
      rp.dedupe = true;  // deletions need a simple graph to name edges in
      ts.base = rmat_graph(n, p.base_edges, seed, rp);
      break;
    }
    case TemporalBase::Hybrid:
      ts.base = hybrid_graph(n, p.base_edges, seed);
      break;
    case TemporalBase::Random:
      ts.base = random_graph(n, p.base_edges, seed);
      break;
  }
  const std::size_t nv = ts.base.n;  // Rmat rounds n up to a power of two

  // Live edge set: a vector for O(1) uniform picks (swap-remove on erase)
  // plus a key set so inserts keep it a simple graph.
  std::vector<Edge> live = ts.base.edges;
  std::unordered_set<std::uint64_t> live_keys;
  live_keys.reserve((live.size() + n_ops) * 2);
  for (const Edge& e : live) live_keys.insert(pair_key(e.u, e.v));

  // A distinct stream from the base graph's so growing the base does not
  // reshuffle the updates.
  Xoshiro256 rng(seed ^ 0x6a09e667f3bcc908ULL);
  std::size_t levels = 0;
  while ((1ULL << levels) < nv) ++levels;
  const double ab = p.rmat.a + p.rmat.b;
  const double abc = ab + p.rmat.c;
  const auto draw_pair = [&](VertexId& u, VertexId& v) {
    if (p.base == TemporalBase::Rmat) {
      u = v = 0;
      for (std::size_t l = 0; l < levels; ++l) {
        const double r = rng.next_double();
        if (r < p.rmat.a) {
        } else if (r < ab) {
          v |= (1ULL << l);
        } else if (r < abc) {
          u |= (1ULL << l);
        } else {
          u |= (1ULL << l);
          v |= (1ULL << l);
        }
      }
    } else {
      u = rng.next_below(nv);
      v = rng.next_below(nv);
    }
  };

  ts.updates.reserve(n_ops);
  std::uint64_t t = 0;
  std::size_t rejects = 0;
  while (ts.updates.size() < n_ops) {
    if (p.delete_frac > 0.0 && !live.empty() &&
        rng.next_double() < p.delete_frac) {
      const std::size_t k = rng.next_below(live.size());
      const Edge e = live[k];
      live[k] = live.back();
      live.pop_back();
      live_keys.erase(pair_key(e.u, e.v));
      ts.updates.push_back({e.u, e.v, ++t, UpdateKind::Erase});
      continue;
    }
    VertexId u = 0, v = 0;
    draw_pair(u, v);
    if (u == v || !live_keys.insert(pair_key(u, v)).second) {
      if (++rejects > 64 * (n_ops + 16))
        throw std::runtime_error("temporal_stream: edge space saturated");
      continue;
    }
    live.push_back({u, v});
    ts.updates.push_back({u, v, ++t, UpdateKind::Insert});
  }
  return ts;
}

std::size_t max_degree(const EdgeList& el) {
  std::vector<std::size_t> deg(el.n, 0);
  for (const Edge& e : el.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  std::size_t mx = 0;
  for (std::size_t d : deg) mx = std::max(mx, d);
  return mx;
}

}  // namespace pgraph::graph

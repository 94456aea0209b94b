// Graph generators: the paper's random and hybrid families plus R-MAT and
// the structured helpers.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "graph/generators.hpp"
#include "graph/permute.hpp"
#include "graph/rng.hpp"

namespace g = pgraph::graph;

namespace {
std::uint64_t key(const g::Edge& e) {
  const auto u = std::min(e.u, e.v), v = std::max(e.u, e.v);
  return (u << 32) | v;
}
}  // namespace

TEST(Rng, Deterministic) {
  g::Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  g::Xoshiro256 a2(123);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRange) {
  g::Xoshiro256 r(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  g::Xoshiro256 r(9);
  std::array<int, 8> hist{};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++hist[r.next_below(8)];
  for (const int h : hist) EXPECT_NEAR(h, n / 8, n / 8 * 0.1);
}

TEST(RandomGraph, ExactEdgeCountUniqueNoSelfLoops) {
  const auto el = g::random_graph(1000, 5000, 1);
  EXPECT_EQ(el.n, 1000u);
  EXPECT_EQ(el.m(), 5000u);
  std::unordered_set<std::uint64_t> seen;
  for (const auto& e : el.edges) {
    EXPECT_NE(e.u, e.v);
    EXPECT_LT(e.u, 1000u);
    EXPECT_LT(e.v, 1000u);
    EXPECT_TRUE(seen.insert(key(e)).second) << "duplicate edge";
  }
}

TEST(RandomGraph, DeterministicAcrossCalls) {
  const auto a = g::random_graph(500, 2000, 77);
  const auto b = g::random_graph(500, 2000, 77);
  EXPECT_EQ(a.edges, b.edges);
  const auto c = g::random_graph(500, 2000, 78);
  EXPECT_NE(a.edges, c.edges);
}

TEST(RandomGraph, RejectsImpossibleDensity) {
  EXPECT_THROW(g::random_graph(4, 100, 1), std::invalid_argument);
  EXPECT_THROW(g::random_graph(1, 0, 1), std::invalid_argument);
}

// The generators draw until they have m edges, so a request they cannot
// satisfy must throw instead of spinning.
TEST(Hybrid, RejectsImpossibleDensity) {
  EXPECT_THROW(g::hybrid_graph(16, 1000, 1), std::invalid_argument);
  EXPECT_THROW(g::hybrid_graph(16, 16 * 15 / 2 + 1, 1), std::invalid_argument);
  EXPECT_EQ(g::hybrid_graph(16, 16 * 15 / 2, 1).m(), 16u * 15 / 2);
}

TEST(Rmat, RejectsImpossibleDensity) {
  // 4 vertices hold 6 unique edges; without dedupe repeats are allowed.
  EXPECT_THROW(g::rmat_graph(4, 7, 1, {.dedupe = true}),
               std::invalid_argument);
  EXPECT_EQ(g::rmat_graph(4, 6, 1, {.dedupe = true}).m(), 6u);
  EXPECT_EQ(g::rmat_graph(4, 7, 1).m(), 7u);
  // Empty quadrants shrink the reachable pairs below that bound.  With
  // c = d = 0 u stays 0: a = b = .5 reaches only the 15 edges (0, v).
  const g::RmatParams ab_only{.a = .5, .b = .5, .c = 0, .dedupe = true};
  EXPECT_THROW(g::rmat_graph(16, 16, 1, ab_only), std::invalid_argument);
  EXPECT_EQ(g::rmat_graph(16, 15, 1, ab_only).m(), 15u);
  // With a = 0 each level lands in b, c or d: (3^4 - 1) / 2 = 40 pairs.
  const g::RmatParams no_a{.a = 0, .b = .25, .c = .25, .dedupe = true};
  EXPECT_THROW(g::rmat_graph(16, 41, 1, no_a), std::invalid_argument);
  EXPECT_EQ(g::rmat_graph(16, 40, 1, no_a).m(), 40u);
}

TEST(Rmat, RejectsParamsThatOnlyDrawSelfLoops) {
  // With b = c = 0, u and v take the same quadrant bit on every level.
  for (const bool dedupe : {false, true})
    EXPECT_THROW(
        g::rmat_graph(64, 10, 1, {.a = .5, .b = 0, .c = 0, .dedupe = dedupe}),
        std::invalid_argument);
  // A NaN probability fails every comparison, so every draw lands in d.
  EXPECT_THROW(
      g::rmat_graph(64, 10, 1, {.a = std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
}

TEST(RandomGraph, DenseNearCompleteStillTerminates) {
  const auto el = g::random_graph(32, 32 * 31 / 2, 5);  // complete graph
  EXPECT_EQ(el.m(), 32u * 31 / 2);
}

TEST(Rmat, PowerOfTwoRoundingAndCount) {
  const auto el = g::rmat_graph(1000, 4000, 3);
  EXPECT_EQ(el.n, 1024u);
  EXPECT_EQ(el.m(), 4000u);
  for (const auto& e : el.edges) {
    EXPECT_NE(e.u, e.v);
    EXPECT_LT(e.u, 1024u);
  }
}

TEST(Rmat, SkewProducesHubs) {
  const auto skewed = g::rmat_graph(4096, 40000, 11, {0.7, 0.1, 0.1, false});
  const auto uniform = g::random_graph(4096, 40000, 11);
  EXPECT_GT(g::max_degree(skewed), 2 * g::max_degree(uniform));
}

TEST(Hybrid, CountAndHubs) {
  const std::size_t n = 10000, m = 40000;
  const auto el = g::hybrid_graph(n, m, 21);
  EXPECT_EQ(el.n, n);
  EXPECT_EQ(el.m(), m);
  std::unordered_set<std::uint64_t> seen;
  for (const auto& e : el.edges) {
    EXPECT_NE(e.u, e.v);
    EXPECT_TRUE(seen.insert(key(e)).second);
  }
  // Scale-free core on 2*sqrt(n) vertices: hubs well above the random
  // graph's max degree (~ m/n + tail).
  EXPECT_GT(g::max_degree(el), 3 * g::max_degree(g::random_graph(n, m, 21)));
}

TEST(Hybrid, Deterministic) {
  EXPECT_EQ(g::hybrid_graph(2000, 8000, 5).edges,
            g::hybrid_graph(2000, 8000, 5).edges);
}

TEST(Weights, DeterministicAndBounded) {
  const auto el = g::random_graph(100, 300, 9);
  const auto wa = g::with_random_weights(el, 123);
  const auto wb = g::with_random_weights(el, 123);
  EXPECT_EQ(wa.edges, wb.edges);
  for (const auto& e : wa.edges) EXPECT_LT(e.w, 1ULL << 31);
  const auto wc = g::with_random_weights(el, 124);
  EXPECT_NE(wa.edges, wc.edges);
}

TEST(Structured, PathCycleStarGridCliques) {
  EXPECT_EQ(g::path_graph(5).m(), 4u);
  EXPECT_EQ(g::cycle_graph(5).m(), 5u);
  EXPECT_EQ(g::star_graph(5).m(), 4u);
  EXPECT_EQ(g::max_degree(g::star_graph(100)), 99u);
  const auto grid = g::grid_graph(3, 4);
  EXPECT_EQ(grid.n, 12u);
  EXPECT_EQ(grid.m(), 3u * 3 + 2 * 4);  // 9 horizontal + 8 vertical = 17
  const auto cl = g::disjoint_cliques(3, 4);
  EXPECT_EQ(cl.n, 12u);
  EXPECT_EQ(cl.m(), 3u * 6);
}

TEST(Structured, EmptyAndTinyGraphs) {
  EXPECT_EQ(g::path_graph(0).m(), 0u);
  EXPECT_EQ(g::path_graph(1).m(), 0u);
  EXPECT_EQ(g::cycle_graph(2).m(), 1u);  // no duplicate closing edge
}

TEST(Permute, IsPermutationAndDeterministic) {
  const auto p = g::random_permutation(1000, 3);
  EXPECT_TRUE(g::is_permutation_of_iota(p));
  EXPECT_EQ(p, g::random_permutation(1000, 3));
  EXPECT_NE(p, g::random_permutation(1000, 4));
}

TEST(Permute, RelabelPreservesStructure) {
  const auto el = g::random_graph(200, 600, 8);
  const auto p = g::random_permutation(200, 15);
  const auto rel = g::relabel(el, p);
  EXPECT_EQ(rel.m(), el.m());
  for (std::size_t i = 0; i < el.m(); ++i) {
    EXPECT_EQ(rel.edges[i].u, p[el.edges[i].u]);
    EXPECT_EQ(rel.edges[i].v, p[el.edges[i].v]);
  }
  EXPECT_EQ(g::max_degree(rel), g::max_degree(el));
}

TEST(TemporalStream, SameSeedSameStream) {
  g::TemporalStreamParams p;
  p.base_edges = 200;
  p.delete_frac = 0.3;
  const auto a = g::temporal_stream(100, 300, 42, p);
  const auto b = g::temporal_stream(100, 300, 42, p);
  EXPECT_EQ(a.base.edges, b.base.edges);
  EXPECT_EQ(a.updates, b.updates);
  const auto c = g::temporal_stream(100, 300, 43, p);
  EXPECT_NE(a.updates, c.updates);
}

TEST(TemporalStream, ReplayIsWellFormed) {
  // Timestamps strictly increase; every Erase names an edge that is live
  // at its timestamp; every Insert is a fresh non-loop edge.
  for (const auto base :
       {g::TemporalBase::Random, g::TemporalBase::Rmat, g::TemporalBase::Hybrid}) {
    g::TemporalStreamParams p;
    p.base = base;
    p.base_edges = 150;
    p.delete_frac = 0.4;
    const auto ts = g::temporal_stream(128, 250, 5, p);
    std::unordered_set<std::uint64_t> live;
    for (const auto& e : ts.base.edges) {
      EXPECT_NE(e.u, e.v);
      EXPECT_TRUE(live.insert(key(e)).second) << "duplicate base edge";
    }
    std::uint64_t prev_ts = 0;
    std::size_t erases = 0;
    for (const auto& u : ts.updates) {
      EXPECT_GT(u.ts, prev_ts);
      prev_ts = u.ts;
      EXPECT_NE(u.u, u.v);
      const auto k = key({u.u, u.v});
      if (u.kind == g::UpdateKind::Insert) {
        EXPECT_TRUE(live.insert(k).second) << "insert of a live edge";
      } else {
        EXPECT_EQ(live.erase(k), 1u) << "erase of a dead edge";
        ++erases;
      }
    }
    EXPECT_EQ(ts.updates.size(), 250u);
    EXPECT_GT(erases, 0u);
  }
}

TEST(TemporalStream, InsertOnlyByDefault) {
  const auto ts = g::temporal_stream(64, 100, 8);
  EXPECT_TRUE(ts.base.edges.empty());  // base_edges defaults to 0
  for (const auto& u : ts.updates)
    EXPECT_EQ(u.kind, g::UpdateKind::Insert);
}

TEST(TemporalStream, RejectsBadParameters) {
  EXPECT_THROW(g::temporal_stream(1, 10, 1), std::invalid_argument);
  g::TemporalStreamParams p;
  p.delete_frac = 1.0;
  EXPECT_THROW(g::temporal_stream(64, 10, 1, p), std::invalid_argument);
  // A tiny vertex set saturates: the generator must fail loudly instead
  // of spinning on rejected duplicate inserts.
  EXPECT_THROW(g::temporal_stream(3, 100, 1), std::runtime_error);
}

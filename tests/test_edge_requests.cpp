// Edge-request kernels: the endpoint loader and compaction helper of
// core/edge_requests.hpp, and exact fault-free trajectories of the kernels
// that keep one request per edge endpoint and drop finished edges between
// rounds (cc_coalesced, sv_coalesced, mst_pgas, bfs_pgas, and the
// incremental pass of an insert-only DynamicGraph batch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs_pgas.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_seq.hpp"
#include "core/edge_requests.hpp"
#include "core/mst_pgas.hpp"
#include "core/mst_seq.hpp"
#include "graph/generators.hpp"
#include "machine/cost_params.hpp"
#include "pgas/runtime.hpp"
#include "stream/dynamic_graph.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;
namespace coll = pgraph::coll;
namespace strm = pgraph::stream;
using Col = std::vector<std::uint64_t>;

namespace {

pg::Runtime make_rt() {
  return pg::Runtime(pg::Topology::cluster(4, 2),
                     m::CostParams::hps_cluster());
}

/// CC's fixed point: every vertex labeled with the smallest vertex id of
/// its component.
std::vector<std::uint64_t> min_id_labels(const g::EdgeList& el) {
  const auto root = core::cc_dsu(el).labels;
  std::vector<std::uint64_t> min_of(el.n, el.n);
  for (std::uint64_t v = 0; v < el.n; ++v)
    min_of[root[v]] = std::min(min_of[root[v]], v);
  std::vector<std::uint64_t> out(el.n);
  for (std::uint64_t v = 0; v < el.n; ++v) out[v] = min_of[root[v]];
  return out;
}

/// A valid key cache holding `keys`.
coll::KeyCache cache_of(std::vector<std::uint32_t> keys) {
  coll::KeyCache c;
  c.keys = std::move(keys);
  c.keys_valid = true;
  return c;
}

/// Run `body` on the single SPMD thread of a 1x1 runtime and return the
/// Work time it charged.
template <class Body>
double work_charged(Body body) {
  pg::Runtime rt(pg::Topology::cluster(1, 1), m::CostParams::hps_cluster());
  double work = 0.0;
  rt.run([&](pg::ThreadCtx& ctx) {
    const double before = ctx.stats().get(m::Cat::Work);
    body(ctx);
    work = ctx.stats().get(m::Cat::Work) - before;
  });
  return work;
}

// --- exact fault-free trajectories ------------------------------------------
//
// Small fixed graphs on the 4x2 cluster preset with the optimized options
// (compaction on).  Every compaction charges a streamed copy of the
// surviving requests, so a change to which requests survive, in what
// order, or what their copy costs moves these numbers.  After an intended
// model change, replace the rows with the ones the failure messages print.

struct Trajectory {
  double modeled_ns;
  int rounds;  ///< iterations, or BFS levels
  std::uint64_t messages, fine_messages, bytes, barriers;
};

Trajectory trajectory_of(const core::RunCosts& c, int rounds) {
  return {c.modeled_ns,    rounds,  c.messages,
          c.fine_messages, c.bytes, c.barriers};
}

std::string text(const Trajectory& t) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{%.17g, %d, %llu, %llu, %llu, %llu}",
                t.modeled_ns, t.rounds,
                static_cast<unsigned long long>(t.messages),
                static_cast<unsigned long long>(t.fine_messages),
                static_cast<unsigned long long>(t.bytes),
                static_cast<unsigned long long>(t.barriers));
  return buf;
}

void expect_trajectory(const Trajectory& got, const Trajectory& want) {
  SCOPED_TRACE("got " + text(got));
  EXPECT_EQ(got.modeled_ns, want.modeled_ns);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.fine_messages, want.fine_messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.barriers, want.barriers);
}

}  // namespace

// --- the loader and the compaction helper ------------------------------------

TEST(EdgeRequests, LoadEndpointsSplitsTheThreadsChunk) {
  const auto el = g::random_graph(40, 103, 7);
  pg::Runtime rt(pg::Topology::cluster(1, 3), m::CostParams::hps_cluster());
  std::vector<Col> us(3), vs(3);
  std::vector<double> work(3), want(3);
  rt.run([&](pg::ThreadCtx& ctx) {
    const auto me = static_cast<std::size_t>(ctx.id());
    const double before = ctx.stats().get(m::Cat::Work);
    core::load_endpoints(ctx, el.edges, us[me], vs[me]);
    work[me] = ctx.stats().get(m::Cat::Work) - before;
    want[me] =
        ctx.mem().seq_ns(us[me].size() * sizeof(g::Edge));  // one stream
  });
  Col all_u, all_v;
  for (std::size_t t = 0; t < 3; ++t) {
    const auto chunk = g::edge_chunk(el.edges, 3, static_cast<int>(t));
    ASSERT_EQ(us[t].size(), chunk.size());
    ASSERT_EQ(vs[t].size(), chunk.size());
    EXPECT_EQ(work[t], want[t]);
    all_u.insert(all_u.end(), us[t].begin(), us[t].end());
    all_v.insert(all_v.end(), vs[t].begin(), vs[t].end());
  }
  ASSERT_EQ(all_u.size(), el.m());
  for (std::size_t k = 0; k < el.m(); ++k) {
    EXPECT_EQ(all_u[k], el.edges[k].u);
    EXPECT_EQ(all_v[k], el.edges[k].v);
  }
}

TEST(EdgeRequests, CompactKeepsOrderAndAlignedKeys) {
  Col a = {10, 11, 12, 13, 14, 15}, b = {20, 21, 22, 23, 24, 25};
  coll::KeyCache ka = cache_of({100, 101, 102, 103, 104, 105});
  coll::KeyCache kb = cache_of({200, 201, 202, 203, 204, 205});
  work_charged([&](pg::ThreadCtx& ctx) {
    core::compact_requests(
        ctx, [](std::size_t k) { return k % 3 != 1; }, {&a, &b}, {&ka, &kb});
  });
  EXPECT_EQ(a, (Col{10, 12, 13, 15}));
  EXPECT_EQ(b, (Col{20, 22, 23, 25}));
  EXPECT_TRUE(ka.keys_valid);
  EXPECT_TRUE(kb.keys_valid);
  EXPECT_EQ(ka.keys, (std::vector<std::uint32_t>{100, 102, 103, 105}));
  EXPECT_EQ(kb.keys, (std::vector<std::uint32_t>{200, 202, 203, 205}));
}

TEST(EdgeRequests, StaleOrWrongSizeCacheInvalidatesEveryCache) {
  for (const bool stale : {true, false}) {
    SCOPED_TRACE(stale ? "stale" : "wrong size");
    Col a = {1, 2, 3, 4}, b = {5, 6, 7, 8};
    coll::KeyCache ka = cache_of({9, 9, 9, 9});
    coll::KeyCache kb = cache_of(stale ? std::vector<std::uint32_t>{9, 9, 9, 9}
                                       : std::vector<std::uint32_t>{9, 9, 9});
    if (stale) kb.invalidate_keys();
    work_charged([&](pg::ThreadCtx& ctx) {
      core::compact_requests(
          ctx, [](std::size_t k) { return k != 0; }, {&a, &b}, {&ka, &kb});
    });
    // The columns still compact; no cache claims keys it does not hold.
    EXPECT_EQ(a, (Col{2, 3, 4}));
    EXPECT_EQ(b, (Col{6, 7, 8}));
    EXPECT_FALSE(ka.keys_valid);
    EXPECT_FALSE(kb.keys_valid);
  }
}

TEST(EdgeRequests, ChargeIsAStreamedCopyOfTheSurvivors) {
  for (const std::size_t ncols : {1u, 2u, 4u}) {
    for (const std::size_t every : {1u, 3u, 1000u}) {
      SCOPED_TRACE(std::to_string(ncols) + " columns, keep every " +
                   std::to_string(every));
      std::vector<Col> cols(4, Col(3001, 7));
      const std::size_t kept = 3000 / every + 1;
      double want = 0.0;
      const double got = work_charged([&](pg::ThreadCtx& ctx) {
        const auto keep = [&](std::size_t k) { return k % every == 0; };
        if (ncols == 1)
          core::compact_requests(ctx, keep, {&cols[0]});
        else if (ncols == 2)
          core::compact_requests(ctx, keep, {&cols[0], &cols[1]});
        else
          core::compact_requests(ctx, keep,
                                 {&cols[0], &cols[1], &cols[2], &cols[3]});
        want = ctx.mem().seq_ns(kept * ncols * sizeof(std::uint64_t));
      });
      EXPECT_EQ(got, want);
      for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(cols[c].size(), c < ncols ? kept : 3001u);
    }
  }
}

TEST(EdgeKernelGolden, CcCoalescedExact) {
  const auto el = g::random_graph(256, 640, 41);
  pg::Runtime rt = make_rt();
  const auto r = core::cc_coalesced(rt, el, core::CcOptions::optimized());
  expect_trajectory(trajectory_of(r.costs, r.iterations),
                    {953386.6875, 4, 2176, 1197, 118040, 77});
  EXPECT_EQ(r.labels, min_id_labels(el));
}

TEST(EdgeKernelGolden, SvCoalescedExact) {
  const auto el = g::random_graph(256, 640, 42);
  pg::Runtime rt = make_rt();
  const auto r = core::sv_coalesced(rt, el, core::CcOptions::optimized());
  expect_trajectory(trajectory_of(r.costs, r.iterations),
                    {2288754.78125, 4, 6863, 3679, 391752, 143});
  EXPECT_EQ(r.labels, min_id_labels(el));
}

TEST(EdgeKernelGolden, MstPgasExact) {
  const auto el =
      g::with_random_weights(g::random_graph(256, 1024, 43), 44);
  pg::Runtime rt = make_rt();
  const auto r = core::mst_pgas(rt, el, core::MstOptions::optimized());
  expect_trajectory(trajectory_of(r.costs, r.iterations),
                    {1495967.125, 5, 4269, 2285, 326280, 109});
  EXPECT_EQ(r.total_weight, core::mst_kruskal(el).total_weight);
  EXPECT_EQ(r.total_weight, 81133647746u);
}

TEST(EdgeKernelGolden, BfsPgasExact) {
  const auto el = g::random_graph(300, 420, 45);
  pg::Runtime rt = make_rt();
  const auto r =
      core::bfs_pgas(rt, el, 0, coll::CollectiveOptions::optimized());
  expect_trajectory(trajectory_of(r.costs, r.levels),
                    {1113833.5625, 9, 3898, 2160, 152032, 81});
  EXPECT_EQ(r.dist, core::bfs_sequential_dist(el, 0));
}

TEST(EdgeKernelGolden, InsertOnlyBatchExact) {
  // An insert-only batch below the rebuild threshold takes the
  // incremental path (cc_incremental over the fresh edges only).
  g::TemporalStreamParams p;
  p.base_edges = 400;
  const auto ts = g::temporal_stream(300, 60, 46, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);
  const strm::BatchStats st = dg.apply_batch(ts.updates);
  ASSERT_FALSE(st.rebuilt);
  ASSERT_GT(st.fresh_edges, 0u);
  expect_trajectory(trajectory_of(st.maintain, st.iterations),
                    {194495.125, 2, 229, 134, 5936, 24});
  const auto sp = dg.labels().raw_all();
  EXPECT_EQ(std::vector<std::uint64_t>(sp.begin(), sp.end()),
            min_id_labels(dg.materialize()));
}

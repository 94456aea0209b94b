// Dynamic-graph subsystem: batched ingestion, incremental CC maintenance
// (bit-identical to a fresh cc_coalesced after every batch), deletion
// fallback, epoch-versioned query snapshots, and survival of the snapshot
// ring across a permanent node loss (the StreamLoss tests run under the
// chaos stage's seed sweep via PGRAPH_CHAOS_SEED).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cc_coalesced.hpp"
#include "core/cc_seq.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "machine/cost_params.hpp"
#include "pgas/runtime.hpp"
#include "stream/cc_incremental.hpp"
#include "stream/dynamic_graph.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;
namespace flt = pgraph::fault;
namespace strm = pgraph::stream;

namespace {

std::uint64_t chaos_seed() {
  const char* s = std::getenv("PGRAPH_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1;
}

pg::Runtime make_rt(int nodes = 4, int threads = 2) {
  return pg::Runtime(pg::Topology::cluster(nodes, threads),
                     m::CostParams::hps_cluster());
}

std::vector<std::uint64_t> labels_of(strm::DynamicGraph& dg) {
  const auto sp = dg.labels().raw_all();
  return {sp.begin(), sp.end()};
}

/// Fresh canonical labeling of `el` in a throwaway runtime.
core::ParCCResult fresh_cc(const g::EdgeList& el) {
  pg::Runtime rt = make_rt();
  return core::cc_coalesced(rt, el, {});
}

/// Drive a whole temporal stream through a DynamicGraph in fixed-size
/// batches, asserting bit-identity against a fresh cc_coalesced run on the
/// materialized edge set after every single batch.
void check_stream_bit_identity(const g::TemporalStream& ts,
                               std::size_t batch, int nodes, int threads) {
  pg::Runtime rt = make_rt(nodes, threads);
  strm::DynamicGraph dg(rt, ts.base);
  ASSERT_EQ(labels_of(dg), fresh_cc(ts.base).labels);

  std::size_t rebuilt = 0;
  for (std::size_t at = 0; at < ts.updates.size(); at += batch) {
    const std::size_t len = std::min(batch, ts.updates.size() - at);
    const auto st = dg.apply_batch(
        std::span<const g::EdgeUpdate>(ts.updates).subspan(at, len));
    if (st.rebuilt) ++rebuilt;
    const auto fresh = fresh_cc(dg.materialize());
    ASSERT_EQ(labels_of(dg), fresh.labels)
        << "batch at op " << at << " (rebuilt=" << st.rebuilt << ")";
    EXPECT_EQ(dg.num_components(), fresh.num_components);
    EXPECT_EQ(st.epoch, dg.latest_epoch());
    EXPECT_GT(st.total_modeled_ns(), 0.0);
  }
  // Deletions must have engaged the rebuild fallback at least once.
  bool any_erase = false;
  for (const auto& u : ts.updates)
    any_erase |= u.kind == g::UpdateKind::Erase;
  if (any_erase) {
    EXPECT_GT(rebuilt, 0u);
  }
}

}  // namespace

TEST(StreamBitIdentity, InsertOnlyAcrossSeeds) {
  for (std::uint64_t seed : {1, 2, 3}) {
    g::TemporalStreamParams p;
    p.base_edges = 400;
    const auto ts = g::temporal_stream(300, 320, seed, p);
    check_stream_bit_identity(ts, 64, 4, 2);
  }
}

TEST(StreamBitIdentity, MixedInsertEraseAcrossSeeds) {
  for (std::uint64_t seed : {1, 2, 3}) {
    g::TemporalStreamParams p;
    p.base_edges = 500;
    p.delete_frac = 0.35;
    const auto ts = g::temporal_stream(250, 300, seed, p);
    check_stream_bit_identity(ts, 50, 4, 2);
  }
}

TEST(StreamBitIdentity, RmatBaseAndOddTopology) {
  g::TemporalStreamParams p;
  p.base = g::TemporalBase::Rmat;
  p.base_edges = 600;
  p.delete_frac = 0.2;
  const auto ts = g::temporal_stream(256, 200, 7, p);
  check_stream_bit_identity(ts, 40, 3, 2);
}

TEST(StreamBitIdentity, SparseBaseManySingletons) {
  // Mostly-isolated vertices: grafts touch almost every inserted edge.
  g::TemporalStreamParams p;
  p.base_edges = 10;
  const auto ts = g::temporal_stream(400, 150, 11, p);
  check_stream_bit_identity(ts, 25, 2, 2);
}

TEST(StreamIncremental, MatchesFreshCcDirectly) {
  // cc_incremental alone: start from the canonical labels of a base graph,
  // fold in fresh edges, compare against cc_coalesced of the union.
  const auto base = g::random_graph(300, 350, 21);
  pg::Runtime rt = make_rt();
  auto run = core::cc_coalesced(rt, base, {});
  pg::GlobalArray<std::uint64_t> d(rt, base.n);
  for (std::size_t i = 0; i < base.n; ++i) d.raw(i) = run.labels[i];

  std::vector<g::Edge> fresh = {{0, 299}, {5, 7}, {100, 200}, {100, 201}};
  const auto inc = strm::cc_incremental(rt, d, fresh, {});
  EXPECT_GT(inc.iterations, 0);

  g::EdgeList merged = base;
  for (const auto& e : fresh) merged.edges.push_back(e);
  const auto want = fresh_cc(merged);
  const auto got = d.raw_all();
  EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want.labels);
}

TEST(StreamIncremental, IterationCapThrowsAndPassResumes) {
  // A path of fresh edges over singleton labels hooks in its first round,
  // so a cap of one round must surface the bound error (on every SPMD
  // thread at once, so no hang); an uncapped pass over the labels the
  // capped one left behind then settles on one component.
  pg::Runtime rt = make_rt(2, 2);
  pg::GlobalArray<std::uint64_t> d(rt, 64);
  for (std::size_t i = 0; i < 64; ++i) d.raw(i) = i;
  const g::EdgeList path = g::path_graph(64);
  core::CcOptions capped;
  capped.max_iters = 1;
  try {
    strm::cc_incremental(rt, d, path.edges, capped);
    ADD_FAILURE() << "cc_incremental did not hit its iteration cap";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cc_incremental: exceeded iteration bound");
  }
  const auto inc = strm::cc_incremental(rt, d, path.edges, {});
  EXPECT_GE(inc.iterations, 1);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(d.raw(i), 0u) << i;
}

TEST(StreamIncremental, LabelCycleThrowsInsteadOfSpinning) {
  // Labels that are not a forest: 5 -> 6 -> 7 -> 5 is a 3-cycle, which
  // every pointer jump maps onto another 3-cycle.  The pass must throw on
  // every thread instead of jumping forever, and the same runtime then
  // solves the repaired (canonical) labels.
  pg::Runtime rt = make_rt(2, 2);
  pg::GlobalArray<std::uint64_t> d(rt, 16);
  for (std::size_t i = 0; i < 16; ++i) d.raw(i) = i;
  d.raw(5) = 6;
  d.raw(6) = 7;
  d.raw(7) = 5;
  const std::vector<g::Edge> fresh = {{3, 4}};
  try {
    strm::cc_incremental(rt, d, fresh, {});
    ADD_FAILURE() << "cc_incremental settled labels that hold a cycle";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "jump_to_stars: labels still changing after 7 jumps (the "
                 "label array holds a cycle)");
  }
  for (std::size_t i = 0; i < 16; ++i) d.raw(i) = i;
  d.raw(6) = d.raw(7) = 5;
  strm::cc_incremental(rt, d, fresh, {});
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint64_t want = i == 4 ? 3 : (i == 6 || i == 7) ? 5 : i;
    EXPECT_EQ(d.raw(i), want) << i;
  }
}

TEST(StreamQueries, AnswersMatchGroundTruth) {
  g::TemporalStreamParams p;
  p.base_edges = 300;
  const auto ts = g::temporal_stream(200, 100, 5, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);
  dg.apply_batch(ts.updates);

  const auto truth = core::cc_dsu(dg.materialize());
  // Component sizes per root label, host-side.
  std::vector<std::uint64_t> size_of(dg.num_vertices(), 0);
  for (const auto lbl : truth.labels) ++size_of[lbl];

  strm::QueryBatch q;
  for (g::VertexId u = 0; u < 50; ++u)
    q.same_component.push_back({u, (u * 37 + 11) % dg.num_vertices()});
  for (g::VertexId u = 0; u < dg.num_vertices(); u += 3)
    q.component_size.push_back(u);

  const auto r = dg.query(q);
  EXPECT_EQ(r.epoch, dg.latest_epoch());
  ASSERT_EQ(r.same.size(), q.same_component.size());
  ASSERT_EQ(r.size.size(), q.component_size.size());
  for (std::size_t i = 0; i < q.same_component.size(); ++i) {
    const auto [u, v] = q.same_component[i];
    EXPECT_EQ(r.same[i] != 0, truth.labels[u] == truth.labels[v]) << i;
  }
  for (std::size_t i = 0; i < q.component_size.size(); ++i)
    EXPECT_EQ(r.size[i], size_of[truth.labels[q.component_size[i]]]) << i;
  EXPECT_GT(r.costs.modeled_ns, 0.0);

  // A second size query hits the cached aggregation: still correct, and
  // strictly cheaper than the pass that built it.
  const auto r2 = dg.query(q);
  EXPECT_EQ(r2.size, r.size);
  EXPECT_LT(r2.costs.modeled_ns, r.costs.modeled_ns);
}

TEST(StreamQueries, SizeAggregationChargedOncePerEpoch) {
  // The lazy component-size aggregation is a one-time per-epoch cost: the
  // first size batch on an epoch pays it (agg_ns > 0), every later batch
  // on the same epoch pays nothing (agg_ns == 0 and strictly lower total),
  // and a new published epoch starts the cycle over.
  g::TemporalStreamParams p;
  p.base_edges = 250;
  const auto ts = g::temporal_stream(180, 60, 31, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);

  strm::QueryBatch q;
  for (g::VertexId u = 0; u < dg.num_vertices(); u += 4)
    q.component_size.push_back(u);

  const auto r1 = dg.query(q);
  EXPECT_GT(r1.agg_ns, 0.0);
  EXPECT_LT(r1.agg_ns, r1.costs.modeled_ns);

  const auto r2 = dg.query(q);  // same epoch: aggregation is cached
  EXPECT_EQ(r2.size, r1.size);
  EXPECT_DOUBLE_EQ(r2.agg_ns, 0.0);
  EXPECT_LT(r2.costs.modeled_ns, r1.costs.modeled_ns);
  EXPECT_LT(r2.costs.barriers, r1.costs.barriers);
  // Identical equal-shaped batches on the warmed epoch cost the same.
  const auto r3 = dg.query(q);
  EXPECT_DOUBLE_EQ(r3.agg_ns, 0.0);
  EXPECT_DOUBLE_EQ(r3.costs.modeled_ns, r2.costs.modeled_ns);

  // Connectivity-only batches never trigger the aggregation.
  strm::QueryBatch conn;
  conn.same_component.push_back({0, 1});
  EXPECT_DOUBLE_EQ(dg.query(conn).agg_ns, 0.0);

  // A new epoch re-arms the lazy pass exactly once.
  dg.apply_batch(ts.updates);
  const auto r4 = dg.query(q);
  EXPECT_GT(r4.agg_ns, 0.0);
  EXPECT_DOUBLE_EQ(dg.query(q).agg_ns, 0.0);
}

TEST(StreamEpochs, RingServesPreviousEpochAndEvictsOlder) {
  g::TemporalStreamParams p;
  p.base_edges = 200;
  const auto ts = g::temporal_stream(150, 90, 9, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);

  const auto span = [&](std::size_t at, std::size_t len) {
    return std::span<const g::EdgeUpdate>(ts.updates).subspan(at, len);
  };

  // Ground truth at epoch 1 = base + first 30 updates.
  dg.apply_batch(span(0, 30));
  const auto truth1 = core::cc_dsu(dg.materialize());
  dg.apply_batch(span(30, 30));  // epoch 2; ring = {1, 2}

  strm::QueryBatch q;
  q.epoch = 1;
  for (g::VertexId u = 0; u + 1 < dg.num_vertices(); u += 7)
    q.same_component.push_back({u, u + 1});
  const auto r = dg.query(q);
  EXPECT_EQ(r.epoch, 1u);
  for (std::size_t i = 0; i < q.same_component.size(); ++i) {
    const auto [u, v] = q.same_component[i];
    EXPECT_EQ(r.same[i] != 0, truth1.labels[u] == truth1.labels[v]) << i;
  }

  dg.apply_batch(span(60, 30));  // epoch 3; ring = {2, 3}: epoch 1 evicted
  EXPECT_THROW(dg.query(q), std::out_of_range);
  strm::QueryBatch q0;
  q0.epoch = 0;
  q0.same_component.push_back({0, 1});
  EXPECT_THROW(dg.query(q0), std::out_of_range);
  strm::QueryBatch latest;
  latest.same_component.push_back({0, 1});
  EXPECT_EQ(dg.query(latest).epoch, 3u);
}

TEST(StreamSpeedup, IncrementalBeatsRebuildOnSmallBatches) {
  // Acceptance shape of bench/str01: a batch of <= 1% of the edges must
  // maintain labels >= 5x cheaper (modeled) than recomputing from scratch.
  g::TemporalStreamParams p;
  p.base_edges = 12000;
  const auto ts = g::temporal_stream(3000, 120, 13, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);
  const double rebuild_ns = dg.initial_build().maintain.modeled_ns;
  ASSERT_GT(rebuild_ns, 0.0);

  const auto st = dg.apply_batch(ts.updates);
  EXPECT_FALSE(st.rebuilt);
  EXPECT_GT(st.maintain.modeled_ns, 0.0);
  EXPECT_GE(rebuild_ns, 5.0 * st.maintain.modeled_ns)
      << "incremental maintain " << st.maintain.modeled_ns
      << " ns vs rebuild " << rebuild_ns << " ns";
}

TEST(StreamRebuildPolicy, LargeBatchAndErasesTriggerRebuild) {
  g::TemporalStreamParams p;
  p.base_edges = 100;
  const auto ts = g::temporal_stream(200, 400, 3, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);
  // 400 inserts against 100 live edges blows past rebuild_frac.
  const auto st = dg.apply_batch(ts.updates);
  EXPECT_TRUE(st.rebuilt);

  // A single applied erase dirties a component and forces a rebuild.
  pg::Runtime rt2 = make_rt();
  strm::DynamicGraph dg2(rt2, ts.base);
  const g::Edge victim = ts.base.edges.front();
  const std::vector<g::EdgeUpdate> one = {
      {victim.u, victim.v, 1, g::UpdateKind::Erase}};
  const auto st2 = dg2.apply_batch(one);
  EXPECT_EQ(st2.erased, 1u);
  EXPECT_GE(st2.dirty_components, 1u);
  EXPECT_TRUE(st2.rebuilt);

  // An erase of a nonexistent edge is ignored and stays incremental.
  pg::Runtime rt3 = make_rt();
  strm::DynamicGraph dg3(rt3, ts.base);
  const std::vector<g::EdgeUpdate> none = {{0, 199, 1, g::UpdateKind::Erase}};
  const auto st3 = dg3.apply_batch(none);
  EXPECT_EQ(st3.erased, 0u);
  EXPECT_EQ(st3.ignored, 1u);
  EXPECT_FALSE(st3.rebuilt);
}

TEST(StreamLoss, SnapshotRingSurvivesShrinkBitIdentical) {
  // Satellite of the buddy-replication PR: publish two epochs, lose a node
  // permanently mid-maintenance, and demand (a) the shrunk stream keeps
  // producing labels bit-identical to a fresh run, and (b) a query against
  // the epoch published BEFORE the loss is served bit-identically from the
  // promoted mirrors.
  g::TemporalStreamParams p;
  p.base_edges = 400;
  const auto ts = g::temporal_stream(300, 120, 17, p);
  const auto span = [&](std::size_t at, std::size_t len) {
    return std::span<const g::EdgeUpdate>(ts.updates).subspan(at, len);
  };

  // Probe the (deterministic) runtime-epoch trajectory with a loss plan
  // that is armed — so publish-time buddy replication is live — but never
  // fires; then aim the real loss at the middle of the second batch.
  std::uint64_t e1 = 0, e2 = 0;
  {
    flt::FaultInjector probe(flt::FaultConfig::parse(
        "loss_at=1000000000,loss_node=2", chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&probe);
    strm::DynamicGraph dg(rt, ts.base);
    dg.apply_batch(span(0, 60));
    e1 = rt.epoch();
    dg.apply_batch(span(60, 60));
    e2 = rt.epoch();
  }
  ASSERT_GT(e2, e1 + 2);

  flt::FaultInjector inj(flt::FaultConfig::parse(
      "loss_at=" + std::to_string(e1 + (e2 - e1) / 2) + ",loss_node=2",
      chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  strm::DynamicGraph dg(rt, ts.base);
  dg.apply_batch(span(0, 60));  // epoch 1, fault-free
  const auto truth1 = core::cc_dsu(dg.materialize());

  dg.apply_batch(span(60, 60));  // epoch 2, across the shrink
  EXPECT_EQ(inj.counters().loss_events, 1u);
  EXPECT_GE(inj.counters().replications, 1u);
  EXPECT_GT(inj.counters().promoted_bytes, 0u);
  EXPECT_EQ(rt.topo().live_node_count(), 3);
  EXPECT_FALSE(rt.topo().node_alive(2));

  // (a) live labels on the shrunk topology == fresh clean-run labels.
  ASSERT_EQ(labels_of(dg), fresh_cc(dg.materialize()).labels);

  // (b) the pre-loss epoch is still served, bit-identical to its truth.
  strm::QueryBatch q;
  q.epoch = 1;
  for (g::VertexId u = 0; u + 1 < dg.num_vertices(); u += 5)
    q.same_component.push_back({u, u + 1});
  for (g::VertexId u = 0; u < dg.num_vertices(); u += 9)
    q.component_size.push_back(u);
  const auto r = dg.query(q);
  EXPECT_EQ(r.epoch, 1u);
  std::vector<std::uint64_t> size1(dg.num_vertices(), 0);
  for (const auto lbl : truth1.labels) ++size1[lbl];
  for (std::size_t i = 0; i < q.same_component.size(); ++i) {
    const auto [u, v] = q.same_component[i];
    EXPECT_EQ(r.same[i] != 0, truth1.labels[u] == truth1.labels[v]) << i;
  }
  for (std::size_t i = 0; i < q.component_size.size(); ++i)
    EXPECT_EQ(r.size[i], size1[truth1.labels[q.component_size[i]]]) << i;

  // The stream keeps working after the shrink.
  const auto st = dg.apply_batch(span(120, 0));
  EXPECT_EQ(st.epoch, dg.latest_epoch());
  ASSERT_EQ(labels_of(dg), fresh_cc(dg.materialize()).labels);
}

TEST(StreamLoss, IncrementalPassRollsBackInsteadOfRebuilding) {
  // An insert-only batch small enough for the incremental pass.  Lose node
  // 2 at each epoch of that pass: a loss the pass meets after its first
  // sealed checkpoint rolls back in place instead of rebuilding (one that
  // surfaces only at publish still rebuilds there), and the labels always
  // equal a fresh cc_coalesced.
  g::TemporalStreamParams p;
  p.base_edges = 400;
  p.delete_frac = 0;
  const auto ts = g::temporal_stream(300, 30, 17, p);
  const std::span<const g::EdgeUpdate> batch(ts.updates);

  // Probe the pass's epoch window with a loss plan that never fires.
  std::uint64_t first = 0, last = 0;
  {
    flt::FaultInjector probe(flt::FaultConfig::parse(
        "loss_at=1000000000,loss_node=2", chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&probe);
    strm::DynamicGraph dg(rt, ts.base);
    const std::uint64_t e0 = rt.epoch();
    const auto st = dg.apply_batch(batch);
    ASSERT_FALSE(st.rebuilt);
    ASSERT_EQ(rt.epoch() - e0, st.ingest.barriers + st.maintain.barriers +
                                   st.publish.barriers);
    first = e0 + st.ingest.barriers;
    last = first + st.maintain.barriers;
  }
  ASSERT_GT(last, first);

  int rolled_back = 0;
  for (std::uint64_t at = first; at < last; ++at) {
    const std::string plan =
        "loss_at=" + std::to_string(at) + ",loss_node=2";
    flt::FaultInjector inj(flt::FaultConfig::parse(plan, chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&inj);
    strm::DynamicGraph dg(rt, ts.base);
    const auto st = dg.apply_batch(batch);
    ASSERT_EQ(labels_of(dg), fresh_cc(dg.materialize()).labels) << plan;
    rolled_back += inj.counters().loss_events == 1 && !st.rebuilt;
  }
  EXPECT_GT(rolled_back, 0);
}

TEST(StreamIngest, CountersAndDeterminism) {
  g::TemporalStreamParams p;
  p.base_edges = 150;
  p.delete_frac = 0.3;
  const auto ts = g::temporal_stream(120, 200, 23, p);

  const auto run_once = [&](int nodes, int threads) {
    pg::Runtime rt = make_rt(nodes, threads);
    strm::DynamicGraph dg(rt, ts.base);
    std::vector<strm::BatchStats> stats;
    for (std::size_t at = 0; at < ts.updates.size(); at += 40)
      stats.push_back(dg.apply_batch(
          std::span<const g::EdgeUpdate>(ts.updates)
              .subspan(at, std::min<std::size_t>(40, ts.updates.size() - at))));
    return std::pair{labels_of(dg), stats};
  };

  const auto [l1, s1] = run_once(4, 2);
  const auto [l2, s2] = run_once(2, 3);  // different topology, same answer
  EXPECT_EQ(l1, l2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    // The functional outcome of a batch is topology-independent.
    EXPECT_EQ(s1[i].inserted, s2[i].inserted) << i;
    EXPECT_EQ(s1[i].erased, s2[i].erased) << i;
    EXPECT_EQ(s1[i].ignored, s2[i].ignored) << i;
    EXPECT_EQ(s1[i].ops, s1[i].inserted + s1[i].erased + s1[i].ignored) << i;
  }
}

// Parallel CC variants (fine-grained, coalesced, SV, CGM, spanning forest,
// incremental) against the DSU ground truth, across topologies,
// partitions and optimization configurations.
#include <gtest/gtest.h>

#include <climits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/cc_coalesced.hpp"
#include "core/cc_fine.hpp"
#include "core/cc_seq.hpp"
#include "core/cgm_cc.hpp"
#include "core/mst_pgas.hpp"
#include "core/mst_seq.hpp"
#include "core/mst_smp.hpp"
#include "graph/generators.hpp"
#include "graph/permute.hpp"
#include "graph/stats.hpp"
#include "partition/partitioning.hpp"
#include "stream/dynamic_graph.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;
namespace strm = pgraph::stream;

namespace {

std::vector<g::EdgeList> test_graphs() {
  std::vector<g::EdgeList> out;
  out.push_back(g::path_graph(64));
  out.push_back(g::cycle_graph(63));
  out.push_back(g::star_graph(65));
  out.push_back(g::disjoint_cliques(6, 7));
  out.push_back(g::random_graph(500, 600, 1));
  out.push_back(g::random_graph(500, 2500, 2));
  out.push_back(g::hybrid_graph(600, 2400, 3));
  out.push_back(g::relabel(g::rmat_graph(256, 1024, 4),
                           g::random_permutation(256, 5)));
  g::EdgeList isolated;
  isolated.n = 37;  // edgeless
  out.push_back(std::move(isolated));
  g::EdgeList dupes = g::path_graph(20);
  dupes.edges.push_back({0, 1});  // duplicate + reversed duplicates
  dupes.edges.push_back({1, 0});
  dupes.edges.push_back({5, 4});
  out.push_back(std::move(dupes));
  return out;
}

struct Topo {
  int nodes, threads;
};
const Topo kTopos[] = {{1, 1}, {1, 4}, {2, 2}, {4, 2}, {3, 1}};

}  // namespace

TEST(CcFine, MatchesDsuAcrossTopologiesAndGraphs) {
  const auto graphs = test_graphs();
  for (const auto& [nodes, threads] : kTopos) {
    pg::Runtime rt(pg::Topology::cluster(nodes, threads),
                   m::CostParams::hps_cluster());
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const auto truth = core::cc_dsu(graphs[gi]);
      const auto got = core::cc_fine_grained(rt, graphs[gi]);
      EXPECT_TRUE(core::same_partition(truth.labels, got.labels))
          << nodes << "x" << threads << " graph " << gi;
      EXPECT_EQ(got.num_components, truth.num_components);
      EXPECT_GT(got.iterations, 0);
    }
  }
}

TEST(CcCoalesced, MatchesDsuAcrossTopologiesAndGraphs) {
  const auto graphs = test_graphs();
  for (const auto& [nodes, threads] : kTopos) {
    pg::Runtime rt(pg::Topology::cluster(nodes, threads),
                   m::CostParams::hps_cluster());
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const auto truth = core::cc_dsu(graphs[gi]);
      const auto got = core::cc_coalesced(rt, graphs[gi]);
      EXPECT_TRUE(core::same_partition(truth.labels, got.labels))
          << nodes << "x" << threads << " graph " << gi;
      EXPECT_EQ(got.num_components, truth.num_components);
    }
  }
}

struct CcOptCase {
  core::CcOptions opt;
  const char* name;
};

// Names the case in the test id (gtest otherwise prints the struct's bytes,
// pointer included, so the id would change from build to build).
std::ostream& operator<<(std::ostream& os, const CcOptCase& c) {
  return os << c.name;
}

class CcOptionSweep : public ::testing::TestWithParam<CcOptCase> {};

TEST_P(CcOptionSweep, CorrectUnderEveryOptimizationConfig) {
  const auto& cfg = GetParam();
  pg::Runtime rt(pg::Topology::cluster(2, 3),
                 m::CostParams::hps_cluster());
  const auto el = g::random_graph(800, 2400, 17);
  const auto truth = core::cc_dsu(el);
  const auto got = core::cc_coalesced(rt, el, cfg.opt);
  EXPECT_TRUE(core::same_partition(truth.labels, got.labels)) << cfg.name;
}

namespace {
std::vector<CcOptCase> cc_opt_cases() {
  std::vector<CcOptCase> out;
  out.push_back({core::CcOptions::base(), "base"});
  out.push_back({core::CcOptions::optimized(1), "optimized-tp1"});
  out.push_back({core::CcOptions::optimized(8), "optimized-tp8"});
  core::CcOptions c = core::CcOptions::base();
  c.compact = true;
  out.push_back({c, "base+compact"});
  c = core::CcOptions::base();
  c.coll.offload = true;
  out.push_back({c, "base+offload"});
  c = core::CcOptions::base();
  c.coll.circular = true;
  out.push_back({c, "base+circular"});
  c = core::CcOptions::base();
  c.coll.id = true;
  out.push_back({c, "base+id"});
  c = core::CcOptions::base();
  c.coll.localcpy = true;
  out.push_back({c, "base+localcpy"});
  c = core::CcOptions::base();
  c.coll.tprime = 16;
  out.push_back({c, "base+tp16"});
  return out;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Sweep, CcOptionSweep,
                         ::testing::ValuesIn(cc_opt_cases()));

TEST(SvCoalesced, MatchesDsuAcrossTopologiesAndGraphs) {
  const auto graphs = test_graphs();
  for (const auto& [nodes, threads] : {Topo{1, 2}, Topo{2, 2}, Topo{4, 1}}) {
    pg::Runtime rt(pg::Topology::cluster(nodes, threads),
                   m::CostParams::hps_cluster());
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const auto truth = core::cc_dsu(graphs[gi]);
      const auto got = core::sv_coalesced(rt, graphs[gi]);
      EXPECT_TRUE(core::same_partition(truth.labels, got.labels))
          << nodes << "x" << threads << " graph " << gi;
    }
  }
}

TEST(CgmCc, MatchesDsuAcrossTopologies) {
  const auto graphs = test_graphs();
  for (const auto& [nodes, threads] : kTopos) {
    pg::Runtime rt(pg::Topology::cluster(nodes, threads),
                   m::CostParams::hps_cluster());
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const auto truth = core::cc_dsu(graphs[gi]);
      const auto got = core::cgm_cc(rt, graphs[gi]);
      EXPECT_TRUE(core::same_partition(truth.labels, got.labels))
          << nodes << "x" << threads << " graph " << gi;
    }
  }
}

TEST(CcParallel, DeterministicAcrossRepeatedRuns) {
  // Collective-based CC resolves ties deterministically for a fixed
  // configuration; two runs must agree exactly.
  pg::Runtime rt(pg::Topology::cluster(2, 2),
                 m::CostParams::hps_cluster());
  const auto el = g::random_graph(400, 1200, 23);
  const auto a = core::cc_coalesced(rt, el);
  const auto b = core::cc_coalesced(rt, el);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(CcParallel, CostTelemetryPopulated) {
  pg::Runtime rt(pg::Topology::cluster(2, 2),
                 m::CostParams::hps_cluster());
  const auto el = g::random_graph(400, 1200, 29);
  const auto r = core::cc_coalesced(rt, el);
  EXPECT_GT(r.costs.modeled_ns, 0.0);
  EXPECT_GT(r.costs.messages, 0u);
  EXPECT_GT(r.costs.barriers, 0u);
  EXPECT_GT(r.costs.breakdown.total(), 0.0);
  EXPECT_GT(r.costs.wall_s, 0.0);
}

TEST(CcParallel, SingleVertexAndTwoVertexGraphs) {
  pg::Runtime rt(pg::Topology::cluster(2, 1),
                 m::CostParams::hps_cluster());
  g::EdgeList one;
  one.n = 1;
  EXPECT_EQ(core::cc_coalesced(rt, one).num_components, 1u);
  g::EdgeList two;
  two.n = 2;
  two.edges = {{0, 1}};
  EXPECT_EQ(core::cc_coalesced(rt, two).num_components, 1u);
  EXPECT_EQ(core::cc_fine_grained(rt, two).num_components, 1u);
}

TEST(CcParallel, IterationCapThrowsAndRuntimeStaysUsable) {
  // A path needs many rounds; a cap of one iteration must surface each
  // kernel's bound error (thrown inside the run on every SPMD thread at
  // once, so no hang), and the same runtime must then solve the graph.
  pg::Runtime rt(pg::Topology::cluster(2, 2),
                 m::CostParams::hps_cluster());
  const auto el = g::path_graph(64);
  const auto wel = g::with_random_weights(el, 3, 1000);
  core::CcOptions capped;
  capped.max_iters = 1;
  const auto expect_cap = [](const char* what, const auto& kernel) {
    try {
      kernel();
      ADD_FAILURE() << what << " did not hit its iteration cap";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(what) + ": exceeded iteration bound");
    }
  };
  expect_cap("cc_coalesced", [&] { core::cc_coalesced(rt, el, capped); });
  expect_cap("sv_coalesced", [&] { core::sv_coalesced(rt, el, capped); });
  expect_cap("cc_fine_grained", [&] { core::cc_fine_grained(rt, el, 1); });
  expect_cap("mst_smp", [&] { core::mst_smp(rt, wel, 1); });
  expect_cap("mst_pgas", [&] { core::mst_pgas(rt, wel, capped); });
  EXPECT_EQ(core::cc_coalesced(rt, el).num_components, 1u);
  EXPECT_EQ(core::sv_coalesced(rt, el).num_components, 1u);
  EXPECT_EQ(core::cc_fine_grained(rt, el).num_components, 1u);
  const std::uint64_t weight = core::mst_kruskal(wel).total_weight;
  EXPECT_EQ(core::mst_smp(rt, wel).total_weight, weight);
  EXPECT_EQ(core::mst_pgas(rt, wel).total_weight, weight);
  // A cap of INT_MAX must not overflow the loop's hard cap on trips.
  core::CcOptions huge;
  huge.max_iters = INT_MAX;
  EXPECT_EQ(core::cc_coalesced(rt, el, huge).num_components, 1u);
  EXPECT_EQ(core::sv_coalesced(rt, el, huge).num_components, 1u);
  EXPECT_EQ(core::mst_pgas(rt, wel, huge).total_weight, weight);
}

// ---------------------------------------------------------------------------
// Differential check: every CC engine against cc_dsu, over small graphs x
// topologies x partitions x option sets.
// ---------------------------------------------------------------------------

namespace {

std::vector<std::pair<const char*, g::EdgeList>> differential_graphs() {
  g::EdgeList edgeless;
  edgeless.n = 13;
  return {{"random", g::random_graph(400, 600, 7)},
          {"rmat", g::rmat_graph(64, 200, 8)},
          {"hybrid", g::hybrid_graph(100, 300, 9)},
          {"path", g::path_graph(40)},
          {"star", g::star_graph(33)},
          {"clique", g::disjoint_cliques(1, 10)},
          {"edgeless", edgeless}};
}

std::vector<std::pair<const char*, core::CcOptions>> differential_options() {
  core::CcOptions hier = core::CcOptions::optimized();
  hier.coll.hierarchical = true;
  core::CcOptions loose = core::CcOptions::optimized();
  loose.compact = false;
  return {{"base", core::CcOptions::base()},
          {"opt t'=0", core::CcOptions::optimized(0)},
          {"opt t'=1", core::CcOptions::optimized(1)},
          {"opt t'=4", core::CcOptions::optimized(4)},
          {"hierarchical", hier},
          {"compact off", loose}};
}

/// Labels of `el` after a DynamicGraph built on its first half of edges
/// folds in the rest as one insert batch, kept on the incremental path.
std::vector<std::uint64_t> incremental_labels(pg::Runtime& rt,
                                              const g::EdgeList& el,
                                              const core::CcOptions& opt) {
  const std::size_t half = el.m() / 2;
  g::EdgeList base;
  base.n = el.n;
  base.edges.assign(el.edges.begin(),
                    el.edges.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<g::EdgeUpdate> batch;
  for (std::size_t k = half; k < el.m(); ++k)
    batch.push_back({el.edges[k].u, el.edges[k].v, k, g::UpdateKind::Insert});
  strm::DynamicGraph dg(rt, base, {.cc = opt, .rebuild_frac = 1e9});
  EXPECT_FALSE(dg.apply_batch(batch).rebuilt);
  std::vector<std::uint64_t> labels;
  dg.labels().read_all(labels);
  return labels;
}

/// Every parallel engine on one topology: the option-free ones (fine
/// grained, CGM) once per graph, the rest once per partition with the
/// option set (g + p + nodes) mod 6 for graph g and partition p, so on
/// each topology every engine meets every partition x option pair (seven
/// graphs cover the six sets).  Returns the number of checks made.
std::size_t check_engines_on(int nodes, int threads) {
  const auto options = differential_options();
  const char* const partitions[] = {"block", "cyclic", "block_cyclic:3",
                                    "degree"};
  pg::Runtime rt(pg::Topology::cluster(nodes, threads),
                 m::CostParams::hps_cluster());
  const auto graphs = differential_graphs();
  std::size_t checks = 0;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const auto& [gname, el] = graphs[gi];
    const auto truth = core::cc_dsu(el);
    const auto expect_same = [&](const char* engine,
                                 const std::vector<std::uint64_t>& labels) {
      EXPECT_TRUE(core::same_partition(truth.labels, labels)) << engine;
      EXPECT_EQ(core::count_components(labels), truth.num_components)
          << engine;
      ++checks;
    };
    SCOPED_TRACE(std::string(gname) + " on " + std::to_string(nodes) + "x" +
                 std::to_string(threads));
    rt.set_partition_spec({});
    expect_same("cc_fine_grained", core::cc_fine_grained(rt, el).labels);
    expect_same("cgm_cc", core::cgm_cc(rt, el).labels);
    for (std::size_t pi = 0; pi < std::size(partitions); ++pi) {
      const char* const pname = partitions[pi];
      const auto& [oname, opt] =
          options[(gi + pi + static_cast<std::size_t>(nodes)) %
                  options.size()];
      SCOPED_TRACE(std::string(pname) + ", " + oname);
      pgraph::partition::PartitionSpec spec;
      EXPECT_EQ(pgraph::partition::PartitionSpec::parse(pname, spec), "");
      if (spec.kind == pgraph::partition::PartitionKind::Degree)
        spec = spec.with_degrees(g::degree_histogram(el));
      rt.set_partition_spec(spec);
      expect_same("cc_coalesced", core::cc_coalesced(rt, el, opt).labels);
      expect_same("sv_coalesced", core::sv_coalesced(rt, el, opt).labels);
      expect_same("incremental", incremental_labels(rt, el, opt));
      // A spanning forest has n - components edges and joins exactly the
      // components.
      const auto forest = core::spanning_tree_pgas(rt, el, opt);
      EXPECT_EQ(forest.edges.size(), el.n - truth.num_components);
      g::EdgeList joined;
      joined.n = el.n;
      for (const std::uint64_t id : forest.edges)
        joined.edges.push_back(el.edges[id]);
      expect_same("spanning_tree_pgas", core::cc_dsu(joined).labels);
    }
  }
  return checks;
}

}  // namespace

TEST(CcDifferential, SequentialBfsAgreesWithDsu) {
  for (const auto& [gname, el] : differential_graphs()) {
    const auto truth = core::cc_dsu(el);
    const auto got = core::cc_bfs(el);
    EXPECT_TRUE(core::same_partition(truth.labels, got.labels)) << gname;
    EXPECT_EQ(got.num_components, truth.num_components) << gname;
  }
}

TEST(CcDifferential, EnginesAgreeWithDsuOn1x1) {
  EXPECT_EQ(check_engines_on(1, 1), 7u * (2 + 4 * 4));
}

TEST(CcDifferential, EnginesAgreeWithDsuOn1x4) {
  EXPECT_EQ(check_engines_on(1, 4), 7u * (2 + 4 * 4));
}

TEST(CcDifferential, EnginesAgreeWithDsuOn2x2) {
  EXPECT_EQ(check_engines_on(2, 2), 7u * (2 + 4 * 4));
}

TEST(CcDifferential, EnginesAgreeWithDsuOn3x2) {
  EXPECT_EQ(check_engines_on(3, 2), 7u * (2 + 4 * 4));
}

TEST(CcDifferential, EnginesAgreeWithDsuOn4x3) {
  EXPECT_EQ(check_engines_on(4, 3), 7u * (2 + 4 * 4));
}

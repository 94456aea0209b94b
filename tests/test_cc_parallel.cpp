// Parallel CC variants (fine-grained, coalesced, SV, CGM) against the DSU
// ground truth, across topologies and optimization configurations.
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

#include "core/cc_coalesced.hpp"
#include "core/cc_fine.hpp"
#include "core/cc_seq.hpp"
#include "core/cgm_cc.hpp"
#include "graph/generators.hpp"
#include "graph/permute.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;

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
  c.coll.id_cache = true;
  c.coll.id_direct = true;
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
  // A path needs many rounds; a cap of one iteration must surface the
  // kernel's bound error (raised on every SPMD thread at once, so no
  // hang), and the same runtime must then solve the graph normally.
  pg::Runtime rt(pg::Topology::cluster(2, 2),
                 m::CostParams::hps_cluster());
  const auto el = g::path_graph(64);
  core::CcOptions capped;
  capped.max_iters = 1;
  const auto expect_cap = [&](auto kernel, const char* what) {
    try {
      kernel(rt, el, capped);
      ADD_FAILURE() << what << " did not hit its iteration cap";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(what) + ": exceeded iteration bound");
    }
  };
  expect_cap(core::cc_coalesced, "cc_coalesced");
  expect_cap(core::sv_coalesced, "sv_coalesced");
  EXPECT_EQ(core::cc_coalesced(rt, el).num_components, 1u);
  EXPECT_EQ(core::sv_coalesced(rt, el).num_components, 1u);
}

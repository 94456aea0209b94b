// PART-01: partition-policy sweep over a power-law graph.
//
// A block layout assigns the hot low-id vertex range (where the power-law
// hubs live) to one owner thread, whose NIC serializes the getd/setd
// exchange while every other NIC idles — the hot-owner collapse.  A
// degree-aware layout cuts the weighted degree prefix into equal-load
// ranges, restoring balanced per-owner NIC occupancy at identical results
// (docs/PARTITIONING.md; EXPERIMENTS.md "Skew and partitioning").
#include <cmath>

#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "graph/rng.hpp"
#include "graph/stats.hpp"
#include "partition/partitioning.hpp"
#include "trace/tracer.hpp"

using namespace pgraph;
using namespace pgraph::bench;

namespace {

/// Power-law edge list with hubs clustered at LOW vertex ids: endpoint u is
/// drawn as floor(n * x^4) (density ~ u^(-3/4), heavy at 0), v uniform.
/// The id clustering is the point — it makes the skew land on one block
/// owner, which is exactly the layout hazard this bench measures.
graph::EdgeList powerlaw_graph(std::size_t n, std::size_t m,
                               std::uint64_t seed) {
  graph::EdgeList el;
  el.n = n;
  el.edges.reserve(m);
  graph::Xoshiro256 rng(seed);
  while (el.edges.size() < m) {
    const double x = rng.next_double();
    const auto u = static_cast<graph::VertexId>(
        static_cast<double>(n) * x * x * x * x);
    const graph::VertexId v = rng.next_below(n);
    if (u == v || u >= n) continue;
    el.edges.push_back({u, v});
  }
  return el;
}

struct Scheme {
  const char* label;
  const char* spec_text;
};

}  // namespace

int run(int argc, char** argv) {
  const BenchArgs a =
      BenchArgs::parse(argc, argv, {.partition = true});
  const int nodes = a.nodes > 0 ? a.nodes : 4;
  const int threads = a.threads > 0 ? a.threads : 2;
  const std::uint64_t n = a.n ? a.n : a.scaled(3000);
  const std::uint64_t m = a.m ? a.m : 4 * n;
  preamble(a, "PART-01",
           "CC over a power-law graph under block / cyclic / block-cyclic "
           "/ degree-aware partitioning",
           "block collapses onto one hot owner NIC; degree-aware restores "
           "balanced owner load at bit-identical labels");

  Report rep(a, "part01_skew_scaling");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));

  const graph::EdgeList el = powerlaw_graph(n, m, a.seed);
  const std::vector<std::uint32_t> deg = graph::degree_histogram(el);
  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);

  // Sweep the four schemes, or just the one the user asked for.
  std::vector<Scheme> schemes = {{"block", "block"},
                                 {"cyclic", "cyclic"},
                                 {"block_cyclic:16", "block_cyclic:16"},
                                 {"degree", "degree"}};
  if (!a.partition.empty())
    schemes = {{a.partition.c_str(), a.partition.c_str()}};

  Table t({"partition", "modeled", "skew max/mean", "hot NIC share",
           "iterations", "components"});
  std::vector<std::uint64_t> block_labels;
  double block_ns = 0.0, degree_ns = 0.0;
  double block_skew = 0.0, degree_skew = 0.0;
  bool labels_diverge = false;

  for (const Scheme& sc : schemes) {
    partition::PartitionSpec spec;
    const std::string perr =
        partition::PartitionSpec::parse(sc.spec_text, spec);
    if (!perr.empty()) {
      std::fprintf(stderr, "part01: %s\n", perr.c_str());
      return 2;
    }
    if (spec.kind == partition::PartitionKind::Degree)
      spec = spec.with_degrees(deg);

    pgas::Runtime rt(topo, params_for(n));
    rt.set_partition_spec(spec);
    rep.attach(rt);
    const std::size_t steps_before =
        rep.enabled() ? rep.tracer()->supersteps().size() : 0;

    core::CcOptions opt = core::CcOptions::optimized();
    opt.coll.tprime = a.tprime > 0 ? a.tprime : 0;
    const core::ParCCResult r = core::cc_coalesced(rt, el, opt);

    const graph::OwnerLoadStats ls =
        graph::owner_load_stats(el, rt.make_partitioning(n));

    // Per-owner-node NIC occupancy over this row's supersteps: the modeled
    // fine-grained drain plus the exchange sweep's send/recv busy time.
    double nic_max = 0.0, nic_sum = 0.0;
    int nic_nodes = 0;
    if (rep.enabled()) {
      std::vector<double> per_node;
      const auto& steps = rep.tracer()->supersteps();
      for (std::size_t i = steps_before; i < steps.size(); ++i) {
        const auto& nds = steps[i].nodes;
        if (per_node.size() < nds.size()) per_node.resize(nds.size(), 0.0);
        for (std::size_t nd = 0; nd < nds.size(); ++nd)
          per_node[nd] += nds[nd].nic.service_ns +
                          nds[nd].exch.send_busy_ns +
                          nds[nd].exch.recv_busy_ns;
      }
      for (const double v : per_node) {
        nic_max = std::max(nic_max, v);
        nic_sum += v;
      }
      nic_nodes = static_cast<int>(per_node.size());
    }
    const double nic_share = nic_sum > 0.0 ? nic_max / nic_sum : 0.0;

    Report::Extra extra = {
        {"skew_max_edges", static_cast<double>(ls.max_edge_load)},
        {"skew_mean_edges", ls.mean_edge_load},
        {"skew_max_over_mean", ls.max_over_mean},
        {"skew_hot_share", ls.hot_share},
        {"iterations", static_cast<double>(r.iterations)},
        {"components", static_cast<double>(r.num_components)},
    };
    if (rep.enabled()) {
      extra.emplace_back("nic_hot_share", nic_share);
      extra.emplace_back("nic_max_ns", nic_max);
      extra.emplace_back("nic_mean_ns",
                         nic_nodes > 0 ? nic_sum / nic_nodes : 0.0);
    }
    rep.row(sc.label, r.costs, std::move(extra));

    t.add_row({sc.label, Table::eng(r.costs.modeled_ns),
               Table::num(ls.max_over_mean), Table::num(nic_share, 3),
               std::to_string(r.iterations),
               std::to_string(r.num_components)});

    // Self-checks: every scheme must produce the same labeling, and the
    // degree-aware cut must beat block on this skewed input.
    if (std::string(sc.label) == "block") {
      block_labels = r.labels;
      block_ns = r.costs.modeled_ns;
      block_skew = ls.max_over_mean;
    } else if (!block_labels.empty() && r.labels != block_labels) {
      labels_diverge = true;
    }
    if (std::string(sc.label) == "degree") {
      degree_ns = r.costs.modeled_ns;
      degree_skew = ls.max_over_mean;
    }
  }

  emit(a, t);
  std::cout << "(power-law graph: n=" << n << " m=" << m << ", " << nodes
            << "x" << threads << " threads; hubs at low ids)\n";

  int rc = rep.finish();
  if (labels_diverge) {
    std::fprintf(stderr,
                 "part01: FAIL — labelings diverge across partitionings\n");
    rc = 1;
  }
  if (block_ns > 0.0 && degree_ns > 0.0) {
    if (!(degree_skew < block_skew)) {
      std::fprintf(stderr,
                   "part01: FAIL — degree-aware owner skew %.3f not below "
                   "block %.3f\n",
                   degree_skew, block_skew);
      rc = 1;
    }
    if (!(degree_ns < block_ns)) {
      std::fprintf(stderr,
                   "part01: FAIL — degree-aware modeled time %.3e not below "
                   "block %.3e on the skewed input\n",
                   degree_ns, block_ns);
      rc = 1;
    }
  }
  return rc;
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

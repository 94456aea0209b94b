// Extension: weak scaling toward "machines with a very large number of
// processors" — the paper's stated future work (Section VII).  The
// per-node problem size is fixed (n/p constant) while the node count
// grows; ideal weak scaling is a flat curve.  Run with flat and with
// hierarchical collectives: the flat all-to-all setup grows as s^2 and
// bends the curve, the hierarchical variant stays much flatter.
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const std::uint64_t per_node = a.n ? a.n : a.scaled(1u << 14);
  const int threads = a.threads > 0 ? a.threads : 4;
  preamble(a, "Extension: weak scaling",
           "CC with fixed n/p while the node count grows (Section VII's "
           "future work)",
           "both curves rise ~2x per node-count doubling: O(log n) extra "
           "iterations plus the label-concentration hotspot (node 0's "
           "receive volume grows with p); hierarchical trims the flat "
           "variant's s^2 setup burst on top of that");

  Report rep(a, "ext01_weak_scaling");
  rep.set_param("per_node", static_cast<double>(per_node));
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t({"nodes", "n", "flat", "hierarchical", "flat msgs",
           "hier msgs"});
  for (const int nodes : {2, 4, 8, 16, 32, 64}) {
    const std::uint64_t n = per_node * static_cast<std::uint64_t>(nodes);
    const auto el = graph::random_graph(n, 4 * n, a.seed);

    pgas::Runtime rt1(pgas::Topology::cluster(nodes, threads),
                      params_for(n));
    rep.attach(rt1);
    const auto flat = core::cc_coalesced(rt1, el);
    rep.row("flat p=" + std::to_string(nodes), flat.costs);

    core::CcOptions hopt = core::CcOptions::optimized();
    hopt.coll.hierarchical = true;
    pgas::Runtime rt2(pgas::Topology::cluster(nodes, threads),
                      params_for(n));
    rep.attach(rt2);
    const auto hier = core::cc_coalesced(rt2, el, hopt);
    rep.row("hier p=" + std::to_string(nodes), hier.costs);

    t.add_row({std::to_string(nodes), std::to_string(n),
               Table::eng(flat.costs.modeled_ns),
               Table::eng(hier.costs.modeled_ns),
               std::to_string(flat.costs.messages),
               std::to_string(hier.costs.messages)});
  }
  emit(a, t);
  std::cout << "(" << per_node << " vertices per node, m/n = 4, " << threads
            << " threads/node)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

// Ablation A: the paper's central architectural claim (Sections I, VII) —
// "instead of taking the approach of communication-efficient algorithms
// that have one processor work on the large contracted inputs to reduce
// communication rounds, it is faster to coordinate multiple processors to
// process the same input in parallel."
//
// We compare the CGM-style contraction baseline (O(log p) rounds, then one
// node finishes sequentially) against the coalesced CC across densities.
// Expected shape: CGM's big coalesced messages make it respectable on very
// sparse graphs, but the sequential finish over the merged forest (poor
// cache behaviour over n) loses to the coordinated-parallel CC as density
// and size grow.
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cgm_cc.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const int threads = a.threads > 0 ? a.threads : 8;
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 18);
  preamble(a, "Ablation A",
           "coordinated-parallel CC vs CGM contract-to-one-node CC",
           "coalesced CC wins; CGM pays the idle-processors sequential "
           "finish (the approach the paper argues against)");

  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
  Table t({"graph", "CC coalesced", "CGM contraction", "CGM/CC",
           "CGM msgs", "CC msgs"});
  Report rep(a, "abl01_cgm_vs_coalesced");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));
  for (const std::uint64_t density : {2ull, 4ull, 10ull}) {
    for (const char* family : {"random", "hybrid"}) {
      const std::uint64_t m = n * density;
      const auto el = std::string(family) == "hybrid"
                          ? graph::hybrid_graph(n, m, a.seed)
                          : graph::random_graph(n, m, a.seed);
      const std::string label =
          std::string(family) + " m/n=" + std::to_string(density);
      pgas::Runtime rt1(topo, params_for(n));
      rep.attach(rt1);
      const auto cc =
          core::cc_coalesced(rt1, el, core::CcOptions::optimized(2));
      rep.row("cc " + label, cc.costs);
      pgas::Runtime rt2(topo, params_for(n));
      rep.attach(rt2);
      const auto cgm = core::cgm_cc(rt2, el);
      rep.row("cgm " + label, cgm.costs,
              {{"vs_cc", cgm.costs.modeled_ns / cc.costs.modeled_ns}});
      t.add_row({label,
                 Table::eng(cc.costs.modeled_ns),
                 Table::eng(cgm.costs.modeled_ns),
                 ratio(cgm.costs.modeled_ns, cc.costs.modeled_ns),
                 std::to_string(cgm.costs.messages),
                 std::to_string(cc.costs.messages)});
    }
  }
  emit(a, t);
  std::cout << "(n=" << n << ", " << nodes << "x" << threads
            << "; note CGM's tiny message count vs its time)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

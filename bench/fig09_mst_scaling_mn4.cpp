// Figures 9/10: optimized MST (Boruvka + SetDMin) on 16 nodes, varying
// threads per node, against the MST-SMP (16-thread) line and sequential
// Kruskal (merge sort) line.
//
// Paper: MST beats MST-SMP everywhere; best speedups at t=8 (5.5x on
// m/n=4, 10.2x on m/n=10).  MST-SMP is barely faster (or slower) than
// Kruskal on these large inputs because of the per-vertex locking overhead.
#include "bench_common.hpp"
#include "core/mst_pgas.hpp"
#include "core/mst_seq.hpp"
#include "core/mst_smp.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run_mst_scaling(int argc, char** argv, const char* figure,
                    std::uint64_t density) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 18);
  const std::uint64_t m = a.m ? a.m : density * n;
  preamble(a, figure,
           "optimized MST vs threads/node (16 nodes), MST-SMP and Kruskal "
           "baselines",
           "beats MST-SMP at every t; best at t=8 (~5.5x / ~10.2x); MST-SMP "
           "barely beats Kruskal (locking overhead with n locks)");

  const auto el =
      graph::with_random_weights(graph::random_graph(n, m, a.seed), a.seed);

  Report rep(a, density == 4 ? "fig09_mst_scaling_mn4"
                             : "fig10_mst_scaling_mn10");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("seed", static_cast<double>(a.seed));

  pgas::Runtime smp(pgas::Topology::single_node(16), smp_params_for(n));
  rep.attach(smp);
  const auto smp_r = core::mst_smp(smp, el);
  rep.row("MST-SMP(16)", smp_r.costs);
  const machine::MemoryModel mm(params_for(n));
  const auto kruskal = core::mst_kruskal(el, &mm);

  Table t({"threads/node", "modeled time", "vs SMP(16)", "vs Kruskal",
           "iterations", "forest weight"});
  for (const int th : {1, 2, 4, 8, 16}) {
    pgas::Runtime rt(pgas::Topology::cluster(nodes, th), params_for(n));
    rep.attach(rt);
    const auto r =
        core::mst_pgas(rt, el, core::MstOptions::optimized());
    if (r.total_weight != kruskal.total_weight) {
      std::cerr << "WEIGHT MISMATCH at t=" << th << "\n";
      return 1;
    }
    t.add_row({std::to_string(th), Table::eng(r.costs.modeled_ns),
               ratio(smp_r.costs.modeled_ns, r.costs.modeled_ns),
               ratio(kruskal.modeled_ns, r.costs.modeled_ns),
               std::to_string(r.iterations),
               std::to_string(r.total_weight)});
    rep.row("t=" + std::to_string(th), r.costs,
            {{"speedup_vs_smp", smp_r.costs.modeled_ns / r.costs.modeled_ns},
             {"speedup_vs_kruskal", kruskal.modeled_ns / r.costs.modeled_ns}});
  }
  t.add_row({"MST-SMP(16)", Table::eng(smp_r.costs.modeled_ns), "1.00x",
             ratio(kruskal.modeled_ns, smp_r.costs.modeled_ns),
             std::to_string(smp_r.iterations),
             std::to_string(smp_r.total_weight)});
  t.add_row({"Kruskal", Table::eng(kruskal.modeled_ns),
             ratio(smp_r.costs.modeled_ns, kruskal.modeled_ns), "1.00x", "1",
             std::to_string(kruskal.total_weight)});
  emit(a, t);
  std::cout << "(graph: n=" << n << " m=" << m
            << ", weights uniform in [0, 2^31))\n";
  return rep.finish();
}

#ifndef PGRAPH_MST_SCALING_NO_MAIN
int main(int argc, char** argv) {
  return bench_main(run_mst_scaling, argc, argv, "Figure 9 (m/n = 4)", 4);
}
#endif

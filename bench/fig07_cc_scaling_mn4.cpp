// Figures 7/8: optimized CC on 16 nodes, varying threads per node, against
// the CC-SMP (16-thread, one-node) line and the sequential (single-thread
// BFS) line.
//
// Paper: optimized CC beats CC-SMP; best speedup at t=8 (2.2x on m/n=4,
// 3x on m/n=10; ~9x and ~11x over sequential); performance DEGRADES at
// t=16 because the SMatrix/PMatrix all-to-all bursts s^2 small messages.
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_fine.hpp"
#include "core/cc_seq.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run_cc_scaling(int argc, char** argv, const char* figure,
                   std::uint64_t density) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 18);
  const std::uint64_t m = a.m ? a.m : density * n;
  preamble(a, figure,
           "optimized CC vs threads/node (16 nodes), SMP and sequential "
           "baselines",
           "beats CC-SMP at every t; best at t=8 (~2-3x SMP, ~9-11x seq); "
           "degrades at t=16 (all-to-all burst of s^2 small messages)");

  const auto el = graph::random_graph(n, m, a.seed);

  Report rep(a, density == 4 ? "fig07_cc_scaling_mn4" : "fig08_cc_scaling_mn10");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("seed", static_cast<double>(a.seed));

  pgas::Runtime smp(pgas::Topology::single_node(16), smp_params_for(n));
  rep.attach(smp);
  const auto smp_r = core::cc_smp(smp, el);
  rep.row("CC-SMP(16)", smp_r.costs);
  const machine::MemoryModel mm(params_for(n));
  const auto seq = core::cc_bfs(el, &mm);

  Table t({"threads/node", "modeled time", "vs SMP(16)", "vs sequential",
           "iterations", "msgs", "wall(s)"});
  for (const int th : {1, 2, 4, 8, 16}) {
    pgas::Runtime rt(pgas::Topology::cluster(nodes, th), params_for(n));
    rep.attach(rt);
    const auto r =
        core::cc_coalesced(rt, el, core::CcOptions::optimized());
    t.add_row({std::to_string(th), Table::eng(r.costs.modeled_ns),
               ratio(smp_r.costs.modeled_ns, r.costs.modeled_ns),
               ratio(seq.modeled_ns, r.costs.modeled_ns),
               std::to_string(r.iterations), std::to_string(r.costs.messages),
               Table::num(r.costs.wall_s, 2)});
    rep.row("t=" + std::to_string(th), r.costs,
            {{"speedup_vs_smp", smp_r.costs.modeled_ns / r.costs.modeled_ns},
             {"speedup_vs_seq", seq.modeled_ns / r.costs.modeled_ns}});
  }
  t.add_row({"CC-SMP(16)", Table::eng(smp_r.costs.modeled_ns), "1.00x",
             ratio(seq.modeled_ns, smp_r.costs.modeled_ns),
             std::to_string(smp_r.iterations), "0", ""});
  t.add_row({"sequential", Table::eng(seq.modeled_ns),
             ratio(smp_r.costs.modeled_ns, seq.modeled_ns), "1.00x", "1", "0",
             ""});
  emit(a, t);
  std::cout << "(graph: n=" << n << " m=" << m
            << "; t' auto-sized so one sub-block fits the cache (Section IV))\n";
  return rep.finish();
}

#ifndef PGRAPH_CC_SCALING_NO_MAIN
int main(int argc, char** argv) {
  return bench_main(run_cc_scaling, argc, argv, "Figure 7 (m/n = 4)", 4);
}
#endif

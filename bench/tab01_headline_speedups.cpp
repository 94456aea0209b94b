// Headline table (abstract / Section VI numbers): best speedups of the
// optimized PGAS implementations over the best single-node SMP
// implementation and the best sequential implementation, for CC and MST,
// on random and hybrid graphs at both densities.
//
// Paper: CC up to 3x SMP / ~10.1x seq (random); hybrid 2.5x & 2.8x SMP,
// ~9x & ~10x seq.  MST up to 5.5x / 10.2x; hybrid 5.1x & 6.7x over seq.
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_fine.hpp"
#include "core/cc_seq.hpp"
#include "core/mst_pgas.hpp"
#include "core/mst_seq.hpp"
#include "core/mst_smp.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const int threads = a.threads > 0 ? a.threads : 8;  // paper's best point
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 18);
  preamble(a, "Headline table",
           "best speedups of optimized PGAS CC/MST at 16 nodes x 8 threads",
           "CC: 2.2-3x SMP, 9-11x seq; MST: 5.5-10.2x; hybrid in the same "
           "range (no hub penalty)");

  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
  const machine::MemoryModel mm(params_for(n));
  Table t({"problem", "graph", "PGAS", "SMP(16)", "sequential", "vs SMP",
           "vs seq"});

  Report rep(a, "tab01_headline_speedups");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));

  for (const auto& [family, density] :
       {std::pair{"random", 4}, {"random", 10}, {"hybrid", 4},
        {"hybrid", 10}}) {
    const std::uint64_t m = n * static_cast<std::uint64_t>(density);
    const auto el = std::string(family) == "hybrid"
                        ? graph::hybrid_graph(n, m, a.seed)
                        : graph::random_graph(n, m, a.seed);
    const std::string label = std::string(family) + " m/n=" +
                              std::to_string(density);

    {  // CC
      pgas::Runtime rt(topo, params_for(n));
      rep.attach(rt);
      const auto r =
          core::cc_coalesced(rt, el, core::CcOptions::optimized());
      pgas::Runtime smp(pgas::Topology::single_node(16), smp_params_for(n));
      const auto s = core::cc_smp(smp, el);
      const auto q = core::cc_bfs(el, &mm);
      t.add_row({"CC", label, Table::eng(r.costs.modeled_ns),
                 Table::eng(s.costs.modeled_ns), Table::eng(q.modeled_ns),
                 ratio(s.costs.modeled_ns, r.costs.modeled_ns),
                 ratio(q.modeled_ns, r.costs.modeled_ns)});
      rep.row("CC " + label, r.costs,
              {{"speedup_vs_smp", s.costs.modeled_ns / r.costs.modeled_ns},
               {"speedup_vs_seq", q.modeled_ns / r.costs.modeled_ns}});
    }
    {  // MST
      const auto wel = graph::with_random_weights(el, a.seed + 1);
      pgas::Runtime rt(topo, params_for(n));
      rep.attach(rt);
      const auto r =
          core::mst_pgas(rt, wel, core::MstOptions::optimized());
      pgas::Runtime smp(pgas::Topology::single_node(16), smp_params_for(n));
      const auto s = core::mst_smp(smp, wel);
      const auto q = core::mst_kruskal(wel, &mm);
      if (r.total_weight != q.total_weight || s.total_weight != q.total_weight)
        std::cerr << "WEIGHT MISMATCH on " << label << "\n";
      t.add_row({"MST", label, Table::eng(r.costs.modeled_ns),
                 Table::eng(s.costs.modeled_ns), Table::eng(q.modeled_ns),
                 ratio(s.costs.modeled_ns, r.costs.modeled_ns),
                 ratio(q.modeled_ns, r.costs.modeled_ns)});
      rep.row("MST " + label, r.costs,
              {{"speedup_vs_smp", s.costs.modeled_ns / r.costs.modeled_ns},
               {"speedup_vs_seq", q.modeled_ns / r.costs.modeled_ns}});
    }
  }
  emit(a, t);
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

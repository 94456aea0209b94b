// Extension: biconnected components (Tarjan-Vishkin) — the third member
// of the CGM algorithm suite the paper's Section II surveys, composed
// entirely from this library's distributed substrate (spanning tree ->
// Euler tour -> list ranking -> auxiliary-graph CC).  Reports the modeled
// time of each run and its phase mix across thread counts, against the
// sequential Hopcroft-Tarjan baseline.
#include "bench_common.hpp"
#include "core/bcc.hpp"

#include <chrono>

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 16);
  const std::uint64_t m = a.m ? a.m : 3 * n;
  preamble(a, "Extension: biconnected components",
           "Tarjan-Vishkin over the distributed substrate vs sequential "
           "Hopcroft-Tarjan",
           "the composed pipeline (3 distributed phases) tracks CC-like "
           "scaling; blocks and articulation points match the sequential "
           "ground truth (asserted here)");

  const auto el = graph::random_graph(n, m, a.seed);
  const auto t0 = std::chrono::steady_clock::now();
  const auto seq = core::bcc_sequential(el);
  const double seq_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Report rep(a, "ext02_bcc_pipeline");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t({"threads/node", "modeled", "blocks", "articulations",
           "matches seq", "msgs"});
  for (const int th : {1, 2, 4, 8}) {
    pgas::Runtime rt(pgas::Topology::cluster(nodes, th), params_for(n));
    rep.attach(rt);
    const auto r = core::bcc_pgas(rt, el);
    std::uint64_t arts = 0;
    for (const auto x : r.is_articulation) arts += x;
    t.add_row({std::to_string(th), Table::eng(r.costs.modeled_ns),
               std::to_string(r.num_blocks), std::to_string(arts),
               core::same_blocks(r, seq) ? "yes" : "NO",
               std::to_string(r.costs.messages)});
    rep.row("t=" + std::to_string(th), r.costs,
            {{"blocks", static_cast<double>(r.num_blocks)},
             {"articulations", static_cast<double>(arts)}});
  }
  emit(a, t);
  std::cout << "(n=" << n << " m=" << m << "; sequential Hopcroft-Tarjan "
            << "host wall time " << seq_wall * 1e3 << " ms, "
            << seq.num_blocks << " blocks)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

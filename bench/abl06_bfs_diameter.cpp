// Ablation F: the introduction's critique of BFS-style distributed graph
// processing — "the parallel BFS implementation has a lower bound of O(d)
// for the running time regardless of the number of processors.  Many
// poly-log time graph algorithms ... exhibit different algorithmic
// behavior."
//
// We run the level-synchronous distributed BFS and the coalesced CC on the
// same graphs while sweeping the diameter at fixed size: BFS rounds grow
// linearly with the diameter, CC iterations stay ~log n, and the modeled
// times diverge accordingly.
#include "bench_common.hpp"
#include "core/bfs_pgas.hpp"
#include "core/cc_coalesced.hpp"

using namespace pgraph;
using namespace pgraph::bench;

namespace {

/// A "ladder" of `k` random blobs chained in a row: diameter ~ k, size and
/// density fixed.
graph::EdgeList chained_blobs(std::size_t n, std::size_t m, std::size_t k,
                              std::uint64_t seed) {
  graph::EdgeList el;
  el.n = n;
  const std::size_t per = n / k;
  std::size_t budget = m > (k - 1) ? m - (k - 1) : 0;
  for (std::size_t b = 0; b < k; ++b) {
    const std::size_t lo = b * per;
    const std::size_t cnt = b + 1 == k ? n - lo : per;
    const std::size_t em = budget / (k - b);
    budget -= em;
    auto blob = graph::random_graph(cnt, em, seed + b);
    for (const auto& e : blob.edges)
      el.edges.push_back({lo + e.u, lo + e.v});
    if (b + 1 < k) el.edges.push_back({lo + cnt - 1, lo + per});  // bridge
  }
  return el;
}

}  // namespace

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 17);
  const std::uint64_t m = a.m ? a.m : 4 * n;
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const int threads = a.threads > 0 ? a.threads : 4;
  preamble(a, "Ablation F",
           "BFS O(diameter) rounds vs CC poly-log iterations, same size",
           "BFS rounds and time grow ~linearly with diameter; CC stays "
           "~log n (the introduction's argument)");

  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
  Report rep(a, "abl06_bfs_diameter");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));
  Table t({"diameter knob", "BFS levels", "BFS time", "CC iterations",
           "CC time", "BFS/CC"});
  for (const std::size_t k : {2u, 8u, 32u, 128u}) {
    const auto el = chained_blobs(n, m, k, a.seed);
    pgas::Runtime rt1(topo, params_for(n));
    rep.attach(rt1);
    const auto bfs = core::bfs_pgas(rt1, el, 0);
    rep.row("bfs k=" + std::to_string(k), bfs.costs,
            {{"levels", static_cast<double>(bfs.levels)}});
    pgas::Runtime rt2(topo, params_for(n));
    rep.attach(rt2);
    const auto cc = core::cc_coalesced(rt2, el);
    rep.row("cc k=" + std::to_string(k), cc.costs,
            {{"iterations", static_cast<double>(cc.iterations)}});
    t.add_row({std::to_string(k), std::to_string(bfs.levels),
               Table::eng(bfs.costs.modeled_ns),
               std::to_string(cc.iterations),
               Table::eng(cc.costs.modeled_ns),
               ratio(bfs.costs.modeled_ns, cc.costs.modeled_ns)});
  }
  emit(a, t);
  std::cout << "(n=" << n << " m=" << m << ", " << nodes << "x" << threads
            << "; the BFS source is vertex 0, in the first blob)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

// Figure 2: the naive CC-UPC (literal translation, fine-grained remote
// accesses) against CC-SMP on one node, for four random graphs.
//
// Paper: the UPC implementation is so much slower that the Y axis is
// logarithmic; normalized per processor (time x processors) it is about
// three orders of magnitude behind.
#include "bench_common.hpp"
#include "core/cc_fine.hpp"
#include "core/cc_seq.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const int threads = a.threads > 0 ? a.threads : 16;  // paper: 16 threads/node
  preamble(a, "Figure 2",
           "naive CC-UPC vs CC-SMP, random graphs (log-scale in paper)",
           "CC-UPC ~2 orders of magnitude slower wall-clock; ~3 orders "
           "normalized per processor");

  struct G {
    std::uint64_t n, density;
  };
  const G cases[] = {{1u << 16, 4}, {1u << 16, 10}, {1u << 17, 4},
                     {1u << 17, 10}};

  Report rep(a, "fig02_naive_vs_smp");
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t({"graph (n, m/n)", "CC-UPC naive", "CC-SMP (16 thr)",
           "slowdown", "per-proc slowdown", "naive msgs"});
  for (const G& c : cases) {
    const std::uint64_t n = a.scaled(c.n);
    const auto el = graph::random_graph(n, n * c.density, a.seed);
    const std::string tag =
        "(" + std::to_string(n) + ", " + std::to_string(c.density) + ")";

    pgas::Runtime upc(pgas::Topology::cluster(nodes, threads), params_for(n));
    rep.attach(upc);
    const auto naive = core::cc_naive_upc(upc, el);
    rep.row("naive " + tag, naive.costs);

    pgas::Runtime smp(pgas::Topology::single_node(16), smp_params_for(n));
    rep.attach(smp);
    const auto ref = core::cc_smp(smp, el);

    const double slow = naive.costs.modeled_ns / ref.costs.modeled_ns;
    const double per_proc =
        slow * (nodes * threads) / 16.0;  // normalize by processor count
    rep.row("smp " + tag, ref.costs, {{"slowdown", slow}});
    t.add_row({tag,
               Table::eng(naive.costs.modeled_ns),
               Table::eng(ref.costs.modeled_ns), ratio(slow, 1.0),
               ratio(per_proc, 1.0),
               std::to_string(naive.costs.messages)});
  }
  emit(a, t);
  std::cout << "(UPC topology: " << nodes << " nodes x " << threads
            << " threads)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

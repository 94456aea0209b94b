// Figure 5: execution-time breakdown of CC under cumulative optimizations,
// random graph, 16 nodes x 8 threads.
//
// Paper (n=100M, m=400M): compact improves nearly every category; circular
// halves Comm; localcpy halves Copy; id slashes the local Work time.
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"

using namespace pgraph;
using namespace pgraph::bench;

namespace {

struct Step {
  const char* name;
  core::CcOptions opt;
};

std::vector<Step> cumulative_steps(int tprime) {
  std::vector<Step> steps;
  core::CcOptions o = core::CcOptions::base();
  o.coll.tprime = tprime;  // "base applies two levels of recursions"
  steps.push_back({"base", o});
  o.compact = true;
  steps.push_back({"+compact", o});
  o.coll.offload = true;
  steps.push_back({"+offload", o});
  o.coll.circular = true;
  steps.push_back({"+circular", o});
  o.coll.localcpy = true;
  steps.push_back({"+localcpy", o});
  o.coll.id = true;
  steps.push_back({"+id", o});
  return steps;
}

}  // namespace

int run_breakdown(int argc, char** argv, const char* figure,
                  const char* family) {
  using pgraph::graph::EdgeList;
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const int threads = a.threads > 0 ? a.threads : 8;
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 18);
  const std::uint64_t m = a.m ? a.m : 4 * n;
  Report rep(a, std::string("fig0") + (std::string(family) == "hybrid"
                                           ? "6_opt_breakdown_hybrid"
                                           : "5_opt_breakdown_random"));
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));
  preamble(a, figure,
           std::string("CC optimization breakdown, ") + family +
               " graph, 16 nodes x 8 threads",
           "compact helps everywhere; circular ~halves Comm; localcpy "
           "~halves Copy; id slashes Work");

  const EdgeList el = std::string(family) == "hybrid"
                          ? graph::hybrid_graph(n, m, a.seed)
                          : graph::random_graph(n, m, a.seed);

  std::vector<std::string> header = {"config"};
  for (const auto& name : machine::kCatNames)
    header.emplace_back(name);
  header.emplace_back("total");
  Table t(header);

  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
  for (const Step& s : cumulative_steps(a.tprime > 0 ? a.tprime : 2)) {
    pgas::Runtime rt(topo, params_for(n));
    rep.attach(rt);
    const auto r = core::cc_coalesced(rt, el, s.opt);
    auto cells = breakdown_cells(r.costs.breakdown);
    cells.insert(cells.begin(), s.name);
    cells.push_back(Table::eng(r.costs.modeled_ns));
    t.add_row(std::move(cells));
    rep.row(s.name, r.costs,
            {{"iterations", static_cast<double>(r.iterations)},
             {"components", static_cast<double>(r.num_components)}});
  }
  emit(a, t);
  std::cout << "(graph: n=" << n << " m=" << m << ", " << nodes << "x"
            << threads << " threads; categories as in the paper's Fig. 5)\n";
  return rep.finish();
}

#ifndef PGRAPH_BREAKDOWN_NO_MAIN
int main(int argc, char** argv) {
  return bench_main(run_breakdown, argc, argv, "Figure 5", "random");
}
#endif

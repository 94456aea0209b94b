// Figure 3: impact of communication coalescing.  One thread per node;
// Orig = naive fine-grained CC, CC/SV = rewritten with the GetD/SetD
// collectives (unoptimized configuration).
//
// Paper (10M vertices / 40M edges, 16 nodes x 1 thread): rewritten CC is
// ~70x faster than the naive implementation; SV is slower than CC because
// it issues more collective calls per iteration.
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_fine.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 18);
  const std::uint64_t m = a.m ? a.m : 4 * n;
  preamble(a, "Figure 3",
           "communication coalescing: Orig vs rewritten CC and SV "
           "(1 thread/node)",
           "rewritten CC ~70x faster than Orig; SV slower than CC (more "
           "collectives per iteration)");

  const auto el = graph::random_graph(n, m, a.seed);
  const pgas::Topology topo = pgas::Topology::cluster(nodes, 1);

  Report rep(a, "fig03_coalescing");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("seed", static_cast<double>(a.seed));

  pgas::Runtime rt1(topo, params_for(n));
  rep.attach(rt1);
  const auto orig = core::cc_naive_upc(rt1, el);
  rep.row("Orig (naive)", orig.costs);

  // The Figure-3 collectives are explicitly *unoptimized* (base config).
  pgas::Runtime rt2(topo, params_for(n));
  rep.attach(rt2);
  const auto cc = core::cc_coalesced(rt2, el, core::CcOptions::base());
  rep.row("CC (collectives)", cc.costs,
          {{"speedup", orig.costs.modeled_ns / cc.costs.modeled_ns}});

  pgas::Runtime rt3(topo, params_for(n));
  rep.attach(rt3);
  const auto sv = core::sv_coalesced(rt3, el, core::CcOptions::base());
  rep.row("SV (collectives)", sv.costs,
          {{"speedup", orig.costs.modeled_ns / sv.costs.modeled_ns}});

  Table t({"variant", "modeled time", "speedup vs Orig", "iterations",
           "messages", "fine msgs"});
  const auto row = [&](const char* name, const core::ParCCResult& r) {
    t.add_row({name, Table::eng(r.costs.modeled_ns),
               ratio(orig.costs.modeled_ns, r.costs.modeled_ns),
               std::to_string(r.iterations), std::to_string(r.costs.messages),
               std::to_string(r.costs.fine_messages)});
  };
  row("Orig (naive)", orig);
  row("CC (collectives)", cc);
  row("SV (collectives)", sv);
  emit(a, t);
  std::cout << "(graph: n=" << n << " m=" << m << ", " << nodes
            << " nodes x 1 thread)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

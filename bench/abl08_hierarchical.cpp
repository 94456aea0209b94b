// Ablation H: the paper's future-work fix (Section VI) — "the thread-
// process hierarchy is exposed to the runtime, and the AlltoAll collective
// does not have to involve s = p x t threads in communication across the
// network.  Instead, it may involve only p processes."
//
// We re-run the Figure-7 sweep with hierarchical collectives: the
// SMatrix/PMatrix tiles travel as p^2 coalesced messages and the data is
// combined per node pair, so the t=16 collapse disappears.
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
  preamble(a, "Ablation H",
           "flat vs hierarchical collectives across threads/node "
           "(the paper's Section-VI proposal, implemented)",
           "hierarchical removes the s^2 small-message burst: t=16 no "
           "longer collapses");

  const auto el = graph::random_graph(n, m, a.seed);

  Report rep(a, "abl08_hierarchical");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("seed", static_cast<double>(a.seed));

  pgas::Runtime smp(pgas::Topology::single_node(16), smp_params_for(n));
  rep.attach(smp);
  const auto smp_r = core::cc_smp(smp, el);
  rep.row("CC-SMP(16)", smp_r.costs);

  Table t({"threads/node", "flat", "flat vs SMP", "hierarchical",
           "hier vs SMP", "flat fine msgs", "hier fine msgs"});
  for (const int th : {1, 4, 8, 16}) {
    pgas::Runtime rt1(pgas::Topology::cluster(nodes, th), params_for(n));
    rep.attach(rt1);
    const auto flat = core::cc_coalesced(rt1, el);
    const auto flat_fine = rt1.net().fine_messages();
    rep.row("flat t=" + std::to_string(th), flat.costs);

    core::CcOptions hopt = core::CcOptions::optimized();
    hopt.coll.hierarchical = true;
    pgas::Runtime rt2(pgas::Topology::cluster(nodes, th), params_for(n));
    rep.attach(rt2);
    const auto hier = core::cc_coalesced(rt2, el, hopt);
    const auto hier_fine = rt2.net().fine_messages();
    rep.row("hier t=" + std::to_string(th), hier.costs,
            {{"vs_flat", flat.costs.modeled_ns / hier.costs.modeled_ns}});

    t.add_row({std::to_string(th), Table::eng(flat.costs.modeled_ns),
               ratio(smp_r.costs.modeled_ns, flat.costs.modeled_ns),
               Table::eng(hier.costs.modeled_ns),
               ratio(smp_r.costs.modeled_ns, hier.costs.modeled_ns),
               std::to_string(flat_fine), std::to_string(hier_fine)});
  }
  emit(a, t);
  std::cout << "(graph: n=" << n << " m=" << m
            << "; both verified against union-find during tests)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

// Ablation C: the t=16 degradation of Figures 7/8.  Section VI traces it
// to line 3 of Algorithm 2: setting up SMatrix/PMatrix is an all-to-all of
// s^2 fine-grained messages, and "the burst of the short messages
// overwhelms the cluster" — a consequence of UPC's flat thread space.
//
// We isolate the collective (GetD with a fixed total request volume) and
// sweep threads/node: the data volume is constant, but the setup burst
// grows as s^2.
#include "bench_common.hpp"
#include "collectives/getd.hpp"
#include "graph/rng.hpp"
#include "pgas/global_array.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int main(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 20);
  const std::uint64_t total_reqs = a.m ? a.m : a.scaled(1u << 20);
  preamble(a, "Ablation C",
           "SMatrix/PMatrix all-to-all burst vs threads/node (fixed data "
           "volume)",
           "per-GetD time is flat or improving until the s^2 small-message "
           "burst dominates near t=16 (paper: ~10x degradation 8 -> 16)");

  Report rep(a, "abl03_alltoall_burst");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("total_reqs", static_cast<double>(total_reqs));
  rep.set_param("nodes", nodes);
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t({"threads/node", "s", "GetD modeled", "Setup category",
           "fine msgs / call"});
  for (const int th : {1, 2, 4, 8, 16}) {
    const pgas::Topology topo = pgas::Topology::cluster(nodes, th);
    const int s = topo.total_threads();
    pgas::Runtime rt(topo, params_for(n));
    rep.attach(rt);
    pgas::GlobalArray<std::uint64_t> d(rt, n);
    coll::CollectiveContext cc(rt);
    const std::size_t per_thread = total_reqs / static_cast<std::size_t>(s);
    const int reps = 4;
    rt.run([&](pgas::ThreadCtx& ctx) {
      graph::Xoshiro256 rng(a.seed + ctx.id());
      std::vector<std::uint64_t> idx(per_thread), out(per_thread);
      for (auto& x : idx) x = rng.next_below(n);
      // One request column, repeated: its `id` keys are computed once.
      coll::CollWorkspace<std::uint64_t> ws(/*keep_keys=*/true);
      for (int rep = 0; rep < reps; ++rep)
        coll::getd(ctx, d, idx, std::span<std::uint64_t>(out),
                   coll::CollectiveOptions::optimized(2), cc, ws);
    });
    t.add_row({std::to_string(th), std::to_string(s),
               Table::eng(rt.modeled_time_ns() / reps),
               Table::eng(rt.critical_stats().get(machine::Cat::Setup) / reps),
               std::to_string(rt.net().fine_messages() / reps)});
    rep.row("t=" + std::to_string(th), core::collect_costs(rt, 0.0),
            {{"s", static_cast<double>(s)},
             {"reps", static_cast<double>(reps)}});
  }
  emit(a, t);
  std::cout << "(total request volume fixed at " << total_reqs
            << " elements per call)\n";
  return rep.finish();
}

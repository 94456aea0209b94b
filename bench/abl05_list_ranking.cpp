// Ablation E: list ranking — the paper's own worked example of the
// communication-efficient school (Section I).  Wyllie pointer jumping via
// the coalesced collectives (O(log n) rounds, all processors busy, but
// O(n log n) work) against the contract-to-one-node scheme (2 rounds, one
// long message per processor, then a sequential cache-hostile chase while
// p-1 processors idle).
//
// Expected shape: the contraction is flat in p (its sequential step is the
// whole cost); Wyllie scales until the per-round communication floor.
// For work-efficient algorithms like CC the same comparison is a clear win
// for coordination (abl01).
#include "bench_common.hpp"
#include "core/list_ranking.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 18);
  preamble(a, "Ablation E",
           "list ranking: Wyllie (coalesced pointer jumping) vs "
           "contract-to-one-node",
           "contraction does not scale with p; Wyllie does, despite ~9x "
           "more communication rounds (Section I's trade-off)");

  const auto succ = core::make_random_list(n, a.seed);
  auto p = params_for(n);

  Report rep(a, "abl05_list_ranking");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t({"nodes x threads", "Wyllie", "rounds", "contract", "rounds ",
           "Wyllie/contract"});
  for (const auto& [nodes, threads] :
       {std::pair{2, 1}, {4, 1}, {8, 1}, {16, 1}, {16, 2}, {16, 4}}) {
    const std::string tag =
        std::to_string(nodes) + "x" + std::to_string(threads);
    pgas::Runtime rt1(pgas::Topology::cluster(nodes, threads), p);
    rep.attach(rt1);
    const auto wy = core::list_ranking_pgas(rt1, succ);
    rep.row("wyllie " + tag, wy.costs,
            {{"rounds", static_cast<double>(wy.rounds)}});
    pgas::Runtime rt2(pgas::Topology::cluster(nodes, threads), p);
    rep.attach(rt2);
    const auto ct = core::list_ranking_contract(rt2, succ);
    rep.row("contract " + tag, ct.costs,
            {{"rounds", static_cast<double>(ct.rounds)}});
    if (wy.ranks != ct.ranks) {
      std::cerr << "RANK MISMATCH\n";
      return 1;
    }
    t.add_row({tag,
               Table::eng(wy.costs.modeled_ns), std::to_string(wy.rounds),
               Table::eng(ct.costs.modeled_ns), std::to_string(ct.rounds),
               ratio(wy.costs.modeled_ns, ct.costs.modeled_ns)});
  }
  emit(a, t);
  std::cout << "(list of " << n << " elements, scrambled layout)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

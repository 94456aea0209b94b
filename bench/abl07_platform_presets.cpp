// Ablation G: platform sensitivity (Section III's analysis).  The paper
// derives from Infiniband (190 ns) vs DDR3 (9 ns) latencies that naive
// fine-grained CC-UPC must be >20x slower than CC-SMP on data access even
// on an aggressive modern interconnect — i.e. coalescing is not an
// artifact of the HPS's microsecond latency.
//
// We run the naive and coalesced CC under both presets: the naive/SMP gap
// shrinks on infiniband-ddr3 but stays >>20x; the coalesced implementation
// wins on both.
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_fine.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 18);
  const std::uint64_t m = a.m ? a.m : 4 * n;
  const int nodes = a.nodes > 0 ? a.nodes : kPaperNodes;
  preamble(a, "Ablation G",
           "HPS cluster vs Infiniband/DDR3 presets (Section III analysis)",
           "naive stays >20x behind SMP even on the faster interconnect; "
           "coalesced CC wins on both platforms");

  const auto el = graph::random_graph(n, m, a.seed);

  Report rep(a, "abl07_platform_presets");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t({"preset", "naive CC-UPC", "coalesced CC", "CC-SMP(16)",
           "naive/SMP", "coalesced vs SMP"});
  for (const bool ib : {false, true}) {
    machine::CostParams p = ib ? machine::CostParams::infiniband_ddr3()
                               : machine::CostParams::hps_cluster();
    p.cache_bytes = params_for(n).cache_bytes;  // same scaled cache

    pgas::Runtime rt1(pgas::Topology::cluster(nodes, 8), p);
    rep.attach(rt1);
    const auto naive = core::cc_naive_upc(rt1, el);
    rep.row("naive " + p.preset, naive.costs);
    pgas::Runtime rt2(pgas::Topology::cluster(nodes, 8), p);
    rep.attach(rt2);
    const auto coal = core::cc_coalesced(rt2, el);
    machine::CostParams ps = p;
    ps.preset = "smp";
    pgas::Runtime rt3(pgas::Topology::single_node(16), ps);
    const auto smp = core::cc_smp(rt3, el);
    rep.row("coalesced " + p.preset, coal.costs,
            {{"vs_smp", smp.costs.modeled_ns / coal.costs.modeled_ns},
             {"naive_vs_smp",
              naive.costs.modeled_ns / smp.costs.modeled_ns}});

    t.add_row({p.preset, Table::eng(naive.costs.modeled_ns),
               Table::eng(coal.costs.modeled_ns),
               Table::eng(smp.costs.modeled_ns),
               ratio(naive.costs.modeled_ns, smp.costs.modeled_ns),
               ratio(smp.costs.modeled_ns, coal.costs.modeled_ns)});
  }
  emit(a, t);
  std::cout << "(n=" << n << " m=" << m << ", " << nodes
            << " nodes x 8 threads)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

// Figure 4: CC performance vs the virtual-thread factor t' on a single SMP
// node (16 threads), relative to the prior SMP implementation.
//
// Paper (n=100M/m=400M, n=100M/m=1G, n=200M/m=800M): with t'=1 the
// collective-based CC already beats CC-SMP; the curve is U-shaped with the
// best t' at 12-18, where it is nearly 2x faster than CC-SMP.
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_fine.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  const int threads = a.threads > 0 ? a.threads : 16;
  preamble(a, "Figure 4",
           "CC (collectives) vs t' on one SMP node, relative to CC-SMP",
           "U-shaped curve peaking where one sub-block fits the cache "
           "(paper hardware: t'=12-18; with this build's scaled cache "
           "ratio the knee lands at t'~26-32), then turns back up");

  struct G {
    std::uint64_t n, m;
    const char* label;
  };
  const G cases[] = {{1u << 18, 4u << 18, "n=256K m/n=4"},
                     {1u << 18, 10u << 18, "n=256K m/n=10"},
                     {1u << 19, 4u << 19, "n=512K m/n=4"}};
  const int tprimes[] = {1, 2, 4, 8, 12, 16, 18, 24, 32, 48, 64};


  std::vector<std::string> header = {"t'"};
  for (const G& c : cases) header.push_back(std::string(c.label) + " (SMP/t')");
  Table t(header);

  Report rep(a, "fig04_virtual_threads");
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));

  std::vector<double> smp_ns;
  for (const G& c : cases) {
    const auto el =
        graph::random_graph(a.scaled(c.n), a.scaled(c.m), a.seed);
    pgas::Runtime smp(pgas::Topology::single_node(threads),
                      smp_params_for(a.scaled(c.n)));
    rep.attach(smp);
    const auto r = core::cc_smp(smp, el);
    smp_ns.push_back(r.costs.modeled_ns);
    rep.row(std::string("smp ") + c.label, r.costs);
  }

  for (const int tp : tprimes) {
    std::vector<std::string> row = {std::to_string(tp)};
    for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
      const G& c = cases[ci];
      const auto el =
          graph::random_graph(a.scaled(c.n), a.scaled(c.m), a.seed);
      pgas::Runtime rt(pgas::Topology::single_node(threads),
                       smp_params_for(a.scaled(c.n)));
      rep.attach(rt);
      auto opt = core::CcOptions::optimized(tp);
      const auto r = core::cc_coalesced(rt, el, opt);
      row.push_back(ratio(smp_ns[ci], r.costs.modeled_ns));
      rep.row("t'=" + std::to_string(tp) + " " + c.label, r.costs,
              {{"speedup_vs_smp", smp_ns[ci] / r.costs.modeled_ns}});
    }
    t.add_row(std::move(row));
  }
  emit(a, t);
  std::cout << "(values > 1 mean CC-with-collectives beats CC-SMP; one "
            << "node, " << threads << " threads)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

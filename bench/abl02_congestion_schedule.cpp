// Ablation B: the mechanism behind the `circular` optimization (Section V).
// All-to-all exchange phases priced by the event-sweep NIC model under the
// identity schedule (every thread serves peers 0,1,2,...) vs the circular
// schedule (i, i+1, ..., i+s-1 mod s), across cluster sizes — plus the
// end-to-end effect on CC's Comm time.
//
// Paper: "Communication time is reduced by a factor of 2 with circular."
#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "machine/exchange_sim.hpp"

using namespace pgraph;
using namespace pgraph::bench;

namespace {

machine::ExchangePlan all_to_all(const pgas::Topology& topo, double svc,
                                 bool circular) {
  const int s = topo.total_threads();
  machine::ExchangePlan plan(static_cast<std::size_t>(s));
  for (int me = 0; me < s; ++me)
    for (int step = 0; step < s; ++step) {
      const int j = circular ? (me + step) % s : step;
      if (topo.node_of(j) == topo.node_of(me)) continue;
      plan[static_cast<std::size_t>(me)].push_back(
          {static_cast<std::int32_t>(topo.node_of(j)), svc});
    }
  return plan;
}

}  // namespace

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  preamble(a, "Ablation B",
           "identity vs circular exchange schedule (NIC event-sweep model)",
           "circular roughly halves the exchange phase; the gap grows with "
           "the thread count");

  Report rep(a, "abl02_congestion_schedule");
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t({"nodes x threads", "identity", "circular", "identity/circular"});
  const double svc = params().net_overhead_ns + 8192 * 0.5;  // 8 KiB msgs
  for (const auto& [nodes, threads] :
       {std::pair{4, 1}, {8, 1}, {16, 1}, {16, 2}, {16, 4}, {16, 8}}) {
    const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
    const auto map = topo.thread_node_map();
    const double ident = machine::exchange_duration_ns(
        all_to_all(topo, svc, false), map, nodes, params().net_latency_ns);
    const double circ = machine::exchange_duration_ns(
        all_to_all(topo, svc, true), map, nodes, params().net_latency_ns);
    const std::string tag =
        std::to_string(nodes) + "x" + std::to_string(threads);
    t.add_row({tag, Table::eng(ident), Table::eng(circ), ratio(ident, circ)});
    rep.row("identity " + tag, ident);
    rep.row("circular " + tag, circ, {{"gain", ident / circ}});
  }
  emit(a, t);

  // End-to-end: CC's Comm category with and without circular.
  const std::uint64_t n = a.n ? a.n : a.scaled(1u << 17);
  const auto el = graph::random_graph(n, 4 * n, a.seed);
  Table t2({"CC config", "Comm time", "total"});
  for (const bool circ : {false, true}) {
    core::CcOptions o = core::CcOptions::optimized(2);
    o.coll.circular = circ;
    pgas::Runtime rt(pgas::Topology::cluster(16, 4), params_for(n));
    rep.attach(rt);
    const auto r = core::cc_coalesced(rt, el, o);
    t2.add_row({circ ? "circular" : "identity",
                Table::eng(r.costs.breakdown.get(machine::Cat::Comm)),
                Table::eng(r.costs.modeled_ns)});
    rep.row(std::string("cc ") + (circ ? "circular" : "identity"), r.costs);
  }
  emit(a, t2);
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

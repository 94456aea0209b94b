// Ablation D: validation of the analytic memory model (equations 4/5 of
// Section IV) against the trace-driven set-associative cache simulator.
//
// Two experiments:
//  1. miss rates of pure random access over varying working sets —
//     simulator vs the analytic miss fraction max(0, 1 - Z/W);
//  2. the access phase of Algorithm 1 (scheduled_gather) vs the original
//     unscheduled gather — measured (simulated) misses vs the model's
//     "pay n misses instead of m misses" argument.
#include "bench_common.hpp"
#include "graph/rng.hpp"
#include "machine/cache_sim.hpp"
#include "sched/access_sched.hpp"

using namespace pgraph;
using namespace pgraph::bench;

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv);
  preamble(a, "Ablation D",
           "analytic memory model vs trace-driven cache simulator",
           "analytic miss fraction 1 - Z/W tracks the simulator; Algorithm "
           "1 cuts access-phase misses from ~m to ~n");

  const std::size_t cache_bytes = 1 << 15;  // 32 KiB, 64B lines, 8-way
  machine::CostParams p = params();
  p.cache_bytes = cache_bytes;
  p.cache_line_bytes = 64;
  const machine::MemoryModel mm(p);

  Report rep(a, "abl04_cache_model_validation");
  rep.set_param("cache_bytes", static_cast<double>(cache_bytes));
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t1({"working set / cache", "simulated miss rate",
            "analytic miss rate"});
  graph::Xoshiro256 rng(a.seed);
  for (const double factor : {0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0}) {
    const std::size_t ws =
        static_cast<std::size_t>(cache_bytes * factor) & ~63ull;
    machine::CacheSim sim(cache_bytes, 64, 8);
    const int accesses = 300000;
    for (int i = 0; i < accesses / 3; ++i)
      sim.access(rng.next_below(ws) & ~7ull);  // warm-up
    sim.reset_counters();
    for (int i = 0; i < accesses; ++i) sim.access(rng.next_below(ws) & ~7ull);
    const double analytic =
        factor <= 1.0 ? 0.0 : 1.0 - 1.0 / factor;
    t1.add_row({Table::num(factor, 2), Table::num(sim.miss_rate(), 3),
                Table::num(analytic, 3)});
    rep.row("miss-rate ws/cache=" + Table::num(factor, 2), 0.0,
            {{"simulated", sim.miss_rate()}, {"analytic", analytic}});
  }
  emit(a, t1);

  Table t2({"gather", "simulated misses", "trace length", "model access_ns"});
  const std::size_t n = 1 << 17, m = 1 << 19;
  std::vector<std::uint64_t> d(n), r(m), out(m);
  for (auto& x : d) x = rng.next();
  for (auto& x : r) x = rng.next_below(n);
  const auto run_one = [&](const char* name,
                           std::span<const std::size_t> ws_levels) {
    sched::AccessTrace trace;
    sched::SchedCost cost;
    if (ws_levels.empty())
      sched::direct_gather(d, r, out, &mm, &cost, &trace);
    else
      sched::scheduled_gather(d, r, out, ws_levels, &mm, &cost, &trace);
    machine::CacheSim sim(cache_bytes, 64, 8);
    for (const std::uint64_t idx : trace) sim.access(idx * 8);
    t2.add_row({name, std::to_string(sim.misses()),
                std::to_string(trace.size()), Table::eng(cost.access_ns)});
    rep.row(name, cost.access_ns,
            {{"misses", static_cast<double>(sim.misses())},
             {"trace_len", static_cast<double>(trace.size())}});
  };
  run_one("direct (original)", {});
  const std::size_t one[] = {64};
  run_one("scheduled W=64", one);
  const std::size_t two[] = {64, 8};
  run_one("scheduled W=64,8", two);
  emit(a, t2);
  std::cout << "(n=" << n << " m=" << m << "; D is " << n * 8 / 1024
            << " KiB against a " << cache_bytes / 1024 << " KiB cache)\n";
  return rep.finish();
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

#include "probes.hpp"

#include <span>

#include "collectives/context.hpp"
#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "core/par_common.hpp"
#include "graph/edge_list.hpp"
#include "machine/exchange_sim.hpp"
#include "pgas/global_array.hpp"
#include "sched/count_sort.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using pgraph::pgas::Runtime;
using pgraph::pgas::ThreadCtx;
using U64 = std::uint64_t;

constexpr int kReps = 15;
constexpr int kBarriers = 40;

/// Host us of `body`, measured on thread 0 from a leading barrier to the
/// end of `body` (which must end in a barrier), so the spawn and join of
/// the enclosing run() are excluded.  Median over kReps runs.
template <class Body>
double in_run_us(Runtime& rt, const char* span, Body body) {
  std::vector<double> us;
  for (int r = 0; r < kReps; ++r) {
    double t = 0.0;
    Span sp(span);
    rt.run([&](ThreadCtx& ctx) {
      ctx.barrier();
      const auto t0 = Clock::now();
      body(ctx);
      if (ctx.id() == 0) t = ms_between(t0, Clock::now()) * 1e3;
    });
    us.push_back(t);
  }
  return median(us);
}

/// Host us of one host-side call, median over kReps.
template <class F>
double host_us(const char* span, F f) {
  std::vector<double> us;
  for (int r = 0; r < kReps; ++r) {
    Span sp(span);
    const auto t0 = Clock::now();
    f();
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  return median(us);
}

void probe_pgas(Runtime& rt, Report& rep) {
  const int s = rt.topo().total_threads();
  const int tpn = rt.topo().threads_per_node;
  rep.add("pgas.run_empty_us",
          host_us("pgas.run", [&] { rt.run([](ThreadCtx&) {}); }), "us");
  rep.add("pgas.barrier_us",
          in_run_us(rt, "pgas.run",
                    [](ThreadCtx& ctx) {
                      for (int b = 0; b < kBarriers; ++b) ctx.barrier();
                    }) /
              kBarriers,
          "us");
  // One 64-byte message to the same slot on the next node per superstep,
  // so the completion step runs a real (small) exchange sweep.
  rep.add("pgas.exchange_barrier_us",
          in_run_us(rt, "pgas.run",
                    [&](ThreadCtx& ctx) {
                      for (int b = 0; b < kBarriers; ++b) {
                        ctx.post_exchange_msg((ctx.id() + tpn) % s, 64);
                        ctx.exchange_barrier();
                      }
                    }) /
              kBarriers,
          "us");
}

void probe_sched(std::size_t n, int s, const std::vector<U64>& keys0,
                 Report& rep) {
  const U64 blk = (n + static_cast<std::size_t>(s) - 1) /
                  static_cast<std::size_t>(s);
  std::vector<U64> sorted(keys0.size());
  std::vector<std::uint32_t> rank(keys0.size());
  std::vector<std::size_t> bucket_off;
  const double us = host_us("sched.count_sort", [&] {
    pgraph::sched::count_sort(
        std::span<const U64>(keys0), [blk](U64 v) { return v / blk; },
        static_cast<std::size_t>(s), std::span<U64>(sorted),
        std::span<std::uint32_t>(rank), bucket_off);
  });
  const auto items = std::max<std::size_t>(1, keys0.size());
  rep.add("sched.count_sort_ns_per_item",
          us * 1e3 / static_cast<double>(items), "ns");
}

/// exchange_duration_ns on the s x s circular plan one collective of this
/// workload posts: thread i sends to i+1, ..., i+s-1 (mod s), off-node
/// peers only, each batch sized as the workload's average per-peer batch.
void probe_machine(Runtime& rt, std::size_t requests, Report& rep) {
  const auto& topo = rt.topo();
  const int s = topo.total_threads();
  const std::size_t per_peer =
      std::max<std::size_t>(1, requests / static_cast<std::size_t>(s * s));
  const std::size_t wire = per_peer * sizeof(U64) + 16;
  pgraph::machine::ExchangePlan plan(static_cast<std::size_t>(s));
  for (int i = 0; i < s; ++i)
    for (int k = 1; k < s; ++k) {
      const int j = (i + k) % s;
      if (topo.same_node(i, j)) continue;
      pgraph::machine::ExchangeMsg m;
      m.dst_node = topo.node_of(j);
      m.service_ns = rt.net().msg_service_ns(wire);
      m.wire_bytes = static_cast<std::uint32_t>(wire);
      plan[static_cast<std::size_t>(i)].push_back(m);
    }
  const auto tn = topo.thread_node_map();
  double sink = 0.0;
  rep.add("machine.exchange_sweep_us",
          host_us("machine.exchange_duration_ns",
                  [&] {
                    sink += pgraph::machine::exchange_duration_ns(
                        plan, tn, topo.nodes, rt.params().net_latency_ns);
                  }),
          "us");
  if (sink <= 0.0) rep.fail("machine probe: empty exchange sweep");
}

void probe_coll(Runtime& rt, std::size_t n,
                const std::vector<std::vector<U64>>& idx,
                const std::vector<std::vector<U64>>& vals, Report& rep) {
  namespace coll = pgraph::coll;
  const auto s = static_cast<std::size_t>(rt.topo().total_threads());
  pgraph::pgas::GlobalArray<U64> d(rt, n);
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = i;
  coll::CollectiveContext cc(rt);
  std::vector<coll::CollWorkspace<U64>> ws(s);
  std::vector<std::vector<U64>> out(s);
  for (std::size_t t = 0; t < s; ++t) out[t].resize(idx[t].size());
  const auto opt = coll::CollectiveOptions::optimized();

  const auto getd = [&](ThreadCtx& ctx) {
    const auto t = static_cast<std::size_t>(ctx.id());
    ws[t].invalidate_keys();
    coll::getd(ctx, d, std::span<const U64>(idx[t]), std::span<U64>(out[t]),
               opt, cc, ws[t]);
  };
  // Modeled cost and exact counts of one call, on a clean clock.
  rt.reset_costs();
  {
    Span sp("coll.getd");
    rt.run(getd);
  }
  const pgraph::core::RunCosts c = pgraph::core::collect_costs(rt, 0.0);
  bool ok = true;
  for (std::size_t t = 0; t < s; ++t)
    for (std::size_t k = 0; k < idx[t].size(); ++k)
      ok = ok && out[t][k] == idx[t][k];
  if (!ok) rep.fail("coll probe: getd returned wrong elements");
  rep.add("coll.getd_msgs", static_cast<double>(c.messages), "count");
  rep.add("coll.getd_bytes", static_cast<double>(c.bytes), "bytes");
  rep.add("coll.getd_modeled_us", c.modeled_ns / 1e3, "us");

  // Host times include one closing barrier each.
  rep.add("coll.getd_us",
          in_run_us(rt, "coll.getd",
                    [&](ThreadCtx& ctx) {
                      getd(ctx);
                      ctx.barrier();
                    }),
          "us");
  const auto set_us = [&](const char* span, bool min) {
    return in_run_us(rt, span, [&](ThreadCtx& ctx) {
      const auto t = static_cast<std::size_t>(ctx.id());
      ws[t].invalidate_keys();
      const std::span<const U64> i(idx[t]), v(vals[t]);
      if (min)
        coll::setd_min(ctx, d, i, v, opt, cc, ws[t]);
      else
        coll::setd(ctx, d, i, v, opt, cc, ws[t]);
      ctx.barrier();
    });
  };
  rep.add("coll.setd_us", set_us("coll.setd", false), "us");
  rep.add("coll.setd_min_us", set_us("coll.setd_min", true), "us");
}

}  // namespace

void run_layer_probes(Runtime& rt, std::size_t n,
                      const std::vector<pgraph::graph::Edge>& pairs,
                      Report& rep) {
  const int s = rt.topo().total_threads();
  std::vector<std::vector<U64>> idx(static_cast<std::size_t>(s));
  std::vector<std::vector<U64>> vals(static_cast<std::size_t>(s));
  for (int t = 0; t < s; ++t)
    for (const auto& e : pgraph::graph::edge_chunk(pairs, s, t)) {
      idx[static_cast<std::size_t>(t)].insert(
          idx[static_cast<std::size_t>(t)].end(), {e.u, e.v});
      vals[static_cast<std::size_t>(t)].insert(
          vals[static_cast<std::size_t>(t)].end(), {e.v, e.u});
    }
  probe_pgas(rt, rep);
  probe_sched(n, s, idx[0], rep);
  probe_machine(rt, 2 * pairs.size(), rep);
  probe_coll(rt, n, idx, vals, rep);
}

}  // namespace perfbench

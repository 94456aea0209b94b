#include "core/bfs_pgas.hpp"

#include <climits>
#include <stdexcept>

#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "core/edge_requests.hpp"
#include "core/recovery.hpp"
#include "graph/csr.hpp"
#include "pgas/coll.hpp"
#include "pgas/global_array.hpp"

namespace pgraph::core {

using machine::Cat;

std::vector<std::uint64_t> bfs_sequential_dist(
    const graph::EdgeList& el, std::uint64_t source,
    const machine::MemoryModel* mem, double* modeled_ns) {
  const graph::Csr csr(el);
  std::vector<std::uint64_t> dist(el.n, kBfsUnreached);
  std::vector<std::uint64_t> queue;
  queue.reserve(el.n);
  dist[source] = 0;
  queue.push_back(source);
  std::size_t head = 0;
  std::uint64_t touched = 0;
  while (head < queue.size()) {
    const std::uint64_t v = queue[head++];
    for (const std::uint64_t w : csr.neighbors(v)) {
      ++touched;
      if (dist[w] == kBfsUnreached) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
  if (mem && modeled_ns) {
    *modeled_ns = mem->seq_ns(csr.directed_edges() * 8) +
                  mem->random_ns(touched, el.n * 8, 8) +
                  mem->compute_ns(touched + el.n);
  }
  return dist;
}

BfsResult bfs_pgas(pgas::Runtime& rt, const graph::EdgeList& el,
                   std::uint64_t source, const coll::CollectiveOptions& opt) {
  if (source >= el.n) throw std::invalid_argument("bfs_pgas: bad source");
  rt.reset_costs();

  const std::size_t n = el.n;
  pgas::GlobalArray<std::uint64_t> dist(rt, n);
  coll::CollectiveContext cc(rt);
  // At most n - 1 levels plus the trip that finds no frontier: a path is
  // the point of BFS's O(d) rounds, so no O(log n) round cap applies.
  RecoveryLoop loop(rt, {&dist}, "bfs_pgas",
                    n < INT_MAX ? static_cast<int>(n) + 1 : INT_MAX, 0);

  rt.run([&](pgas::ThreadCtx& ctx) {
    const int me = ctx.id();
    {
      auto blk = dist.local_span(me);
      for (auto& x : blk) x = kBfsUnreached;
      ctx.mem_seq(blk.size() * 8, Cat::Work);
      if (dist.owner(source) == me)
        blk[source - dist.block_begin(me)] = 0;
    }
    ctx.barrier();

    std::vector<std::uint64_t> eu, ev;
    load_endpoints(ctx, el.edges, eu, ev);

    // The endpoint columns keep their `id` keys; ws_set is scratch.
    coll::CollWorkspace<std::uint64_t> ws_u(true), ws_v(true), ws_set;
    std::vector<std::uint64_t> du, dv, gi, gv;

    loop.run(ctx, {{&eu, &ev}, {&ws_u, &ws_v}}, [&](int it) {
      const auto level = static_cast<std::uint64_t>(it);
      du.resize(eu.size());
      dv.resize(ev.size());
      coll::getd(ctx, dist, eu, std::span<std::uint64_t>(du), opt, cc, ws_u);
      coll::getd(ctx, dist, ev, std::span<std::uint64_t>(dv), opt, cc, ws_v);

      // Frontier expansion: settled endpoint at `level` relaxes the other.
      gi.clear();
      gv.clear();
      for (std::size_t k = 0; k < eu.size(); ++k) {
        if (du[k] == level && dv[k] > level + 1) {
          gi.push_back(ev[k]);
          gv.push_back(level + 1);
        }
        if (dv[k] == level && du[k] > level + 1) {
          gi.push_back(eu[k]);
          gv.push_back(level + 1);
        }
      }
      ctx.compute(eu.size() * 4, Cat::Work);
      if (!pgas::allreduce_or(ctx, !gi.empty())) return false;
      coll::setd_min(ctx, dist, gi, std::span<const std::uint64_t>(gv), opt,
                     cc, ws_set);

      // Compact: an edge whose endpoints are both settled can never relax
      // anything again.
      compact_requests(
          ctx,
          [&](std::size_t k) {
            return du[k] == kBfsUnreached || dv[k] == kBfsUnreached;
          },
          {&eu, &ev}, {&ws_u, &ws_v});
      return true;
    });
  });

  BfsResult r;
  r.dist.assign(dist.raw_all().begin(), dist.raw_all().end());
  r.levels = loop.iterations() - 1;
  r.costs = collect_costs(rt);
  return r;
}

}  // namespace pgraph::core

#include "core/cc_fine.hpp"

#include <atomic>
#include <stdexcept>

#include "collectives/crcw.hpp"
#include "machine/phase_stats.hpp"
#include "pgas/coll.hpp"
#include "pgas/global_array.hpp"

namespace pgraph::core {

using machine::Cat;

ParCCResult cc_fine_grained(pgas::Runtime& rt, const graph::EdgeList& el,
                            int max_iters) {
  rt.reset_costs();

  const std::size_t n = el.n;
  if (max_iters <= 0) max_iters = default_round_cap(n);

  pgas::GlobalArray<std::uint64_t> d(rt, n);
  std::atomic<int> iterations{0};

  rt.run([&](pgas::ThreadCtx& ctx) {
    const int s = ctx.nthreads();
    const int me = ctx.id();

    // Labels only ever shrink: both the grafts (put_min) and the shortcut
    // sweeps (store of D[D[i]] <= D[i]) are priority-CRCW writes, so the
    // whole kernel runs under one declared min-combine window — the
    // "benign races" of Figure 1, made explicit for the access checker.
    coll::CrcwRegion<std::uint64_t> crcw(d, coll::CrcwMode::Min);

    // D[i] = i  (parallel over blocks).
    {
      auto blk = d.local_span(me);
      const std::uint64_t base = d.block_begin(me);
      for (std::size_t k = 0; k < blk.size(); ++k) blk[k] = base + k;
      ctx.mem_seq(blk.size() * sizeof(std::uint64_t), Cat::Work);
    }
    ctx.barrier();

    const auto chunk = graph::edge_chunk(el.edges, s, me);

    int it = 0;
    for (;; ++it) {
      // Every thread reaches the cap on the same trip: a collective throw.
      if (it >= max_iters)
        throw std::runtime_error("cc_fine_grained: exceeded iteration bound");

      // --- graft: for each edge, hook the larger label under the smaller.
      bool grafted = false;
      for (const graph::Edge& e : chunk) {
        const std::uint64_t du = d.get(ctx, e.u);
        const std::uint64_t dv = d.get(ctx, e.v);
        if (du < dv) {
          d.put_min(ctx, dv, du);
          grafted = true;
        } else if (dv < du) {
          d.put_min(ctx, du, dv);
          grafted = true;
        }
      }
      ctx.mem_seq(chunk.size() * sizeof(graph::Edge), Cat::Work);
      ctx.compute(chunk.size() * 4, Cat::Work);
      ctx.barrier();

      // --- shortcut: asynchronously collapse the owned block to rooted
      // stars, exactly as Figure 1 writes it — "setting D[i] <- D[D[i]]
      // repeatedly for all i" in full sweeps until the block reaches a
      // fixpoint.  Labels only shrink, so this terminates under
      // concurrent grafting; each sweep is n/s streamed reads/writes of
      // D[i] plus n/s irregular accesses for D[D[i]].
      {
        auto blk = d.local_span(me);
        const std::uint64_t base = d.block_begin(me);
        bool sweep_changed = true;
        while (sweep_changed) {
          sweep_changed = false;
          for (std::size_t k = 0; k < blk.size(); ++k) {
            const std::uint64_t cur = d.load_relaxed(base + k);
            const std::uint64_t p = d.get(ctx, cur);
            if (p != cur) {
              d.store_relaxed(base + k, p);
              sweep_changed = true;
            }
          }
          ctx.mem_seq(blk.size() * 2 * sizeof(std::uint64_t), Cat::Work);
        }
      }

      if (!pgas::allreduce_or(ctx, grafted)) break;
    }
    if (me == 0) iterations.store(it + 1, std::memory_order_relaxed);
  });

  ParCCResult r;
  r.labels.assign(d.raw_all().begin(), d.raw_all().end());
  r.num_components = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (r.labels[i] == i) ++r.num_components;
  r.iterations = iterations.load();
  r.costs = collect_costs(rt);
  return r;
}

}  // namespace pgraph::core

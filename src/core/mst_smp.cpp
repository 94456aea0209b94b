#include "core/mst_smp.hpp"

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>

#include "pgas/coll.hpp"

namespace pgraph::core {

using machine::Cat;

namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

std::uint64_t load_rlx(std::uint64_t& x) {
  return std::atomic_ref<std::uint64_t>(x).load(std::memory_order_relaxed);
}
void store_rlx(std::uint64_t& x, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(x).store(v, std::memory_order_relaxed);
}

}  // namespace

ParMstResult mst_smp(pgas::Runtime& rt, const graph::WEdgeList& el,
                     int max_iters) {
  if (el.m() >= (1ULL << 32))
    throw std::invalid_argument("mst_smp: edge ids must fit 32 bits");
  rt.reset_costs();

  const std::size_t n = el.n;
  const int s = rt.topo().total_threads();
  if (max_iters <= 0) max_iters = default_round_cap(n);

  // Shared state: supervertex labels, per-vertex candidate record guarded
  // by a fine-grained spinlock.
  std::vector<std::uint64_t> d(n);
  std::vector<std::uint64_t> cand_key(n), cand_parent(n);
  std::unique_ptr<std::atomic_flag[]> locks(new std::atomic_flag[n]());

  std::vector<std::vector<std::uint64_t>> mst_edges(
      static_cast<std::size_t>(s));
  std::vector<std::uint64_t> mst_weight(static_cast<std::size_t>(s), 0);
  std::atomic<int> iterations{0};

  const auto vrange = [&](int me) {
    return graph::even_chunk(n, s, me);
  };

  rt.run([&](pgas::ThreadCtx& ctx) {
    const int me = ctx.id();
    const auto [vlo, vhi] = vrange(me);
    for (std::size_t i = vlo; i < vhi; ++i) d[i] = i;
    ctx.mem_seq((vhi - vlo) * 8, Cat::Work);
    ctx.barrier();

    const auto chunk = graph::edge_chunk(el.edges, s, me);
    const std::size_t chunk_base = graph::even_chunk(el.m(), s, me).first;
    // Active edge ids for this thread (compacted in place each round).
    std::vector<std::uint32_t> active(chunk.size());
    for (std::size_t k = 0; k < chunk.size(); ++k)
      active[k] = static_cast<std::uint32_t>(k);

    auto& my_mst = mst_edges[static_cast<std::size_t>(me)];

    int it = 0;
    for (;; ++it) {
      // Every thread reaches the cap on the same trip: a collective throw.
      if (it >= max_iters)
        throw std::runtime_error("mst_smp: exceeded iteration bound");

      // --- reset candidates over my vertex range.
      for (std::size_t i = vlo; i < vhi; ++i) cand_key[i] = kInf;
      ctx.mem_seq((vhi - vlo) * 8, Cat::Work);
      ctx.barrier();

      // --- find the minimum incident edge per supervertex, under locks.
      bool any = false;
      std::size_t lock_ops = 0;
      for (const std::uint32_t k : active) {
        const auto& e = chunk[k];
        const std::uint64_t du = load_rlx(d[e.u]);
        const std::uint64_t dv = load_rlx(d[e.v]);
        if (du == dv) continue;
        any = true;
        const std::uint64_t key = (e.w << 32) | (chunk_base + k);
        for (const auto& [c, other] :
             {std::pair{du, dv}, std::pair{dv, du}}) {
          while (locks[c].test_and_set(std::memory_order_acquire)) {
          }
          if (key < cand_key[c]) {
            cand_key[c] = key;
            cand_parent[c] = other;
          }
          locks[c].clear(std::memory_order_release);
          ++lock_ops;
        }
      }
      ctx.mem_random(active.size() * 2, n * 8, 8, Cat::Work);
      ctx.mem_random(lock_ops * 2, n * 8, 8, Cat::Work);
      ctx.locks(lock_ops, Cat::Work);
      if (!pgas::allreduce_or(ctx, any)) break;

      // --- graft winners over my vertex range.
      for (std::size_t c = vlo; c < vhi; ++c) {
        if (cand_key[c] == kInf) continue;
        store_rlx(d[c], cand_parent[c]);
      }
      ctx.mem_seq((vhi - vlo) * 16, Cat::Work);
      ctx.barrier();

      // --- break 2-cycles, mark surviving edges.
      for (std::size_t c = vlo; c < vhi; ++c) {
        if (cand_key[c] == kInf) continue;
        const std::uint64_t p = cand_parent[c];
        if (load_rlx(d[p]) == c && c < p) {
          store_rlx(d[c], c);  // revert; the larger root keeps the edge
          continue;
        }
        my_mst.push_back(cand_key[c] & 0xffffffffULL);
        mst_weight[static_cast<std::size_t>(me)] += cand_key[c] >> 32;
      }
      ctx.mem_random((vhi - vlo), n * 8, 8, Cat::Work);
      ctx.barrier();

      // --- asynchronous shortcut to rooted stars (the forest is acyclic,
      // so chasing terminates; concurrent writes only shorten paths).
      std::size_t chase = 0;
      for (std::size_t i = vlo; i < vhi; ++i) {
        std::uint64_t cur = load_rlx(d[i]);
        for (;;) {
          const std::uint64_t p = load_rlx(d[cur]);
          if (p == cur) break;
          cur = p;
          ++chase;
        }
        store_rlx(d[i], cur);
      }
      ctx.mem_random((vhi - vlo) * 2 + chase, n * 8, 8, Cat::Work);
      ctx.barrier();

      // --- compact (drop edges that fell inside a component).
      std::size_t kept = 0;
      for (const std::uint32_t k : active) {
        const auto& e = chunk[k];
        if (load_rlx(d[e.u]) != load_rlx(d[e.v])) active[kept++] = k;
      }
      active.resize(kept);
      ctx.mem_random(active.size() * 2, n * 8, 8, Cat::Work);
      ctx.barrier();
    }
    if (me == 0) iterations.store(it + 1, std::memory_order_relaxed);
  });

  ParMstResult r;
  for (int t = 0; t < s; ++t) {
    r.edges.insert(r.edges.end(),
                   mst_edges[static_cast<std::size_t>(t)].begin(),
                   mst_edges[static_cast<std::size_t>(t)].end());
    r.total_weight += mst_weight[static_cast<std::size_t>(t)];
  }
  r.iterations = iterations.load();
  r.costs = collect_costs(rt);
  return r;
}

}  // namespace pgraph::core

#include "core/list_ranking.hpp"

#include <atomic>
#include <cassert>
#include <stdexcept>

#include "collectives/getd.hpp"
#include "core/recovery.hpp"
#include "graph/permute.hpp"
#include "pgas/coll.hpp"
#include "pgas/global_array.hpp"

namespace pgraph::core {

using machine::Cat;

std::vector<std::uint64_t> make_random_list(std::size_t n,
                                            std::uint64_t seed,
                                            std::uint64_t* head) {
  if (n == 0) return {};
  const auto order = graph::random_permutation(n, seed);
  std::vector<std::uint64_t> succ(n);
  for (std::size_t k = 0; k + 1 < n; ++k) succ[order[k]] = order[k + 1];
  succ[order[n - 1]] = order[n - 1];  // tail
  if (head) *head = order[0];
  return succ;
}

std::vector<std::uint64_t> rank_sequential(
    const std::vector<std::uint64_t>& succ, const machine::MemoryModel* mem,
    double* modeled_ns) {
  const std::size_t n = succ.size();
  std::vector<std::uint64_t> ranks(n, 0);
  std::vector<bool> has_pred(n, false);
  for (std::size_t i = 0; i < n; ++i)
    if (succ[i] != i) has_pred[succ[i]] = true;

  std::vector<std::uint64_t> chain;
  chain.reserve(n);
  for (std::size_t h = 0; h < n; ++h) {
    if (has_pred[h]) continue;
    chain.clear();
    std::uint64_t cur = h;
    for (;;) {
      chain.push_back(cur);
      if (succ[cur] == cur) break;
      cur = succ[cur];
    }
    for (std::size_t k = 0; k < chain.size(); ++k)
      ranks[chain[k]] = chain.size() - 1 - k;
  }
  if (mem && modeled_ns) {
    // The chase is one random access per element over the whole array —
    // exactly the cache-hostile pattern Section I warns about; the rank
    // write-back is scattered the same way.
    *modeled_ns = mem->seq_ns(n * sizeof(std::uint64_t)) +
                  mem->random_ns(n, n * 8, 8) +
                  mem->random_write_ns(n, n * 8, 8) + mem->compute_ns(3 * n);
  }
  return ranks;
}

namespace {

/// Shared Wyllie engine: ranks[i] = sum of weights over elements strictly
/// after i (exclusive suffix sum).  `weights == nullptr` means unit
/// weights (plain list ranking).
ListRankResult wyllie_impl(pgas::Runtime& rt,
                           const std::vector<std::uint64_t>& succ,
                           const std::vector<std::uint64_t>* weights,
                           const coll::CollectiveOptions& opt) {
  rt.reset_costs();
  const std::size_t n = succ.size();

  pgas::GlobalArray<std::uint64_t> nxt(rt, n);
  pgas::GlobalArray<std::uint64_t> rnk(rt, n);
  coll::CollectiveContext cc(rt);
  RecoveryLoop loop(rt, {&nxt, &rnk}, "list_ranking_pgas",
                    default_round_cap(n), 0);

  rt.run([&](pgas::ThreadCtx& ctx) {
    const int me = ctx.id();
    auto nb = nxt.local_span(me);
    auto rb = rnk.local_span(me);
    const std::uint64_t base = nxt.block_begin(me);
    for (std::size_t k = 0; k < nb.size(); ++k) {
      const std::uint64_t s = succ[base + k];
      nb[k] = s;
      // Exclusive suffix: start with the immediate successor's weight.
      rb[k] = s == base + k ? 0 : (weights ? (*weights)[s] : 1);
    }
    ctx.mem_seq(nb.size() * 2 * sizeof(std::uint64_t), Cat::Work);
    if (weights)
      ctx.mem_random(nb.size(), n * 8, 8, Cat::Work);  // w[succ] gathers
    ctx.barrier();

    coll::CollWorkspace<std::uint64_t> ws(/*keep_keys=*/true);
    std::vector<std::uint64_t> idx, rn, nn;

    // A rollback restores the blocks of N and R; the workspace drops its
    // keys every round anyway.
    loop.run(ctx, {}, [&](int) {
      // Wyllie: R[i] += R[N[i]]; N[i] = N[N[i]]  (lock step, coalesced).
      idx.assign(nb.begin(), nb.end());
      ctx.mem_seq(idx.size() * sizeof(std::uint64_t), Cat::Copy);
      rn.resize(idx.size());
      nn.resize(idx.size());
      ws.invalidate_keys();
      coll::getd(ctx, rnk, idx, std::span<std::uint64_t>(rn), opt, cc, ws);
      // Same request indices: the cached keys are reused for the second
      // fetch (N and R share the block layout).
      coll::getd(ctx, nxt, idx, std::span<std::uint64_t>(nn), opt, cc, ws);

      bool changed = false;
      for (std::size_t k = 0; k < nb.size(); ++k) {
        if (nb[k] == base + k) continue;  // tail element
        // N[i] already points at a fixpoint (the tail): R[N[i]] is 0 and
        // the jump is a no-op — the element is done.
        if (nn[k] == nb[k]) continue;
        rb[k] += rn[k];
        nb[k] = nn[k];
        changed = true;
      }
      ctx.mem_seq(nb.size() * 2 * sizeof(std::uint64_t), Cat::Copy);
      ctx.compute(nb.size() * 2, Cat::Work);
      return pgas::allreduce_or(ctx, changed);
    });
  });

  ListRankResult res;
  res.ranks.assign(rnk.raw_all().begin(), rnk.raw_all().end());
  res.rounds = loop.iterations();
  res.costs = collect_costs(rt);
  return res;
}

}  // namespace

ListRankResult list_ranking_pgas(pgas::Runtime& rt,
                                 const std::vector<std::uint64_t>& succ,
                                 const coll::CollectiveOptions& opt) {
  return wyllie_impl(rt, succ, nullptr, opt);
}

ListRankResult list_ranking_weighted_pgas(
    pgas::Runtime& rt, const std::vector<std::uint64_t>& succ,
    const std::vector<std::uint64_t>& weights,
    const coll::CollectiveOptions& opt) {
  assert(weights.size() == succ.size());
  return wyllie_impl(rt, succ, &weights, opt);
}

ListRankResult list_ranking_contract(pgas::Runtime& rt,
                                     const std::vector<std::uint64_t>& succ) {
  rt.reset_costs();
  const std::size_t n = succ.size();
  const int s = rt.topo().total_threads();

  pgas::GlobalArray<std::uint64_t> rnk(rt, n);
  std::atomic<bool> failed{false};

  rt.run([&](pgas::ThreadCtx& ctx) {
    const int me = ctx.id();
    const std::size_t cnt = rnk.local_size(me);
    // Round 1: one long message per thread shipping its block to thread 0.
    if (me != 0) ctx.post_exchange_msg(0, cnt * sizeof(std::uint64_t));
    ctx.mem_seq(cnt * sizeof(std::uint64_t), Cat::Comm);
    ctx.exchange_barrier();

    // Thread 0 ranks the full instance sequentially; everyone else idles
    // (the cost Section I criticizes).
    if (me == 0) {
      double seq_ns = 0.0;
      const auto ranks = rank_sequential(succ, &ctx.mem(), &seq_ns);
      ctx.charge(Cat::Work, seq_ns);
      if (ranks.size() != n) failed.store(true);
      // Scatter results back: one bulk put per block.
      for (int t = 0; t < s; ++t) {
        const std::size_t tl = rnk.block_begin(t);
        const std::size_t tc = rnk.local_size(t);
        if (tc > 0) rnk.memput(ctx, tl, tc, ranks.data() + tl, Cat::Comm);
      }
    }
    ctx.barrier();
  });

  if (failed.load())
    throw std::runtime_error("list_ranking_contract: rank failure");

  ListRankResult res;
  res.ranks.assign(rnk.raw_all().begin(), rnk.raw_all().end());
  res.rounds = 2;  // gather + scatter
  res.costs = collect_costs(rt);
  return res;
}

}  // namespace pgraph::core

#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "collectives/conformance_hook.hpp"
#include "collectives/detail.hpp"
#include "pgas/trace_hook.hpp"

namespace pgraph::coll {

/// A (index, value) pair the requester already knows, enabling the
/// `offload` optimization: requests for `index` are answered locally with
/// `value` instead of hammering the owner (D[0] = 0 stays constant in CC,
/// and thread 0 would otherwise become a communication hotspot).
struct KnownElement {
  std::uint64_t index = 0;
  std::uint64_t value = 0;
};

/// GetD (Algorithm 2): bulk concurrent read.  All threads call with their
/// private request list; on return out[i] = D[indices[i]] for every i.
///
/// Structure (one recursion level of Algorithm 1 across the cluster, with
/// the cache-level recursion folded into the virtual-block sort):
///   1. group:   count-sort requests by virtual block (owner thread, then
///               sub-block within the owner's block)            [Sort/Work]
///   2. setup:   publish per-peer counts/offsets (SMatrix/PMatrix)  [Setup]
///   3. barrier
///   4. serve:   each owner walks its peers (circular or identity order),
///               gathers the requested elements from its block and deposits
///               them into the requester's reply buffer      [Copy + Comm]
///   5. exchange barrier (prices the coalesced messages)
///   6. permute: scatter replies back into request order      [Irregular]
template <class T>
void getd(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
          std::span<const std::uint64_t> indices, std::span<T> out,
          const CollectiveOptions& opt, CollectiveContext& cc,
          CollWorkspace<T>& ws,
          std::optional<KnownElement> known = std::nullopt) {
  using detail::Cat;
  static_assert(sizeof(T) == 8, "collectives are specified for word-size T");
  assert(out.size() == indices.size());

  const int s = ctx.nthreads();
  const int me = ctx.id();
  const std::size_t m = indices.size();
  const int tprime =
      detail::resolve_tprime(ctx, opt, D.part().max_local_size(), sizeof(T));
  const sched::VBlocks vb(D.part(), tprime);
  const bool offload = opt.offload && known.has_value();
#ifdef PGRAPH_CHECK_ACCESS
  conformance_note(ctx, analysis::CollOp::GetD, opt.site,
                   collective_sig(D.uid(), D.size(), sizeof(T), /*combine=*/0,
                                  tprime, opt,
                                  offload ? known->index : ~0ull));
#endif
  // Checksum protocol (docs/ROBUSTNESS.md): when payload corruption is in
  // the fault plan, owners deposit a per-batch checksum next to the reply
  // (8B rides on each message) and the requester validates after the
  // exchange, re-requesting damaged batches at modeled retransmission cost.
  fault::FaultInjector* const finj = ctx.runtime().fault_injector();
  const bool chk = finj != nullptr && finj->config().corruption_enabled();

  // --- group ------------------------------------------------------------
  std::size_t kept = 0;
  {
    pgas::TraceScope ts(ctx, "getd.group");
    // Each record carries its request rank, so replies can be permuted
    // back; requests for the known element are answered right here.
    kept = detail::group_by_vblock(
        ctx, vb, indices, opt, ws, ws.rank,
        [](std::size_t i) { return static_cast<std::uint32_t>(i); },
        [&](std::size_t i) { return offload && indices[i] == known->index; },
        [&](std::size_t i) { out[i] = static_cast<T>(known->value); });
  }

  // --- setup -------------------------------------------------------------
  ws.reply.resize(kept);
  {
    pgas::TraceScope ts(ctx, "getd.setup");
    ctx.publish(kSlotIdx, ws.sorted.data());
    ctx.publish(kSlotData, ws.reply.data());
    if (chk) {
      ws.sums.assign(static_cast<std::size_t>(s), 0);
      ctx.publish(kSlotSum, ws.sums.data());
    }
    detail::write_matrices(ctx, cc, ws.thr_off, opt);
  }
  ctx.exchange_barrier();  // step 4 of Algorithm 2

  // --- serve (owner side) -------------------------------------------------
  {
    pgas::TraceScope ts(ctx, "getd.serve");
    // Indices in, data out: two messages per remote batch.
    detail::owner_walk(
        ctx, D, cc, ws, opt, vb, {sizeof(std::uint64_t), sizeof(T)},
        kSlotData, chk,
        [&](std::uint64_t& ri, std::uint64_t& li) {
          // Serve a dummy element: the reply is garbage either way and
          // this epoch is about to be rolled back.
          ri = D.part().global_of(me, 0);
          li = 0;
          return true;
        },
        [&](std::uint64_t ri, const T& elem, T& reply) {
          reply = elem;
          // Owner-side read through the raw block pointer: make it visible
          // to the race detector (a stray same-epoch write would corrupt
          // replies).
          D.note_read(ctx, ri);
        });
  }
  ctx.exchange_barrier();

  // --- verify (requester side; fault protocol only) -----------------------
  if (chk) {
    pgas::TraceScope ts_verify(ctx, "getd.verify");
    // The injector models wire damage to the delivered replies; the
    // checksum pass catches it per owner batch and a modeled
    // retransmission (round trip + backoff) delivers the clean copy.
    finj->corrupt(ws.reply.data(), kept * sizeof(T), ctx.epoch(), me,
                  /*tag=*/0);
    ctx.compute(kept, Cat::Copy);  // checksum pass over the replies
    for (int j = 0; j < s; ++j) {
      const std::size_t off = ws.thr_off[static_cast<std::size_t>(j)];
      const std::size_t cnt =
          ws.thr_off[static_cast<std::size_t>(j) + 1] - off;
      if (cnt == 0) continue;
      detail::retransmit_until_clean(
          ctx, *finj, ws.sums[static_cast<std::size_t>(j)], cnt,
          {{ws.reply.data() + off, cnt * sizeof(T)}},
          "getd: reply batch unrecoverable");
    }
  }

  // --- permute (requester side) -------------------------------------------
  pgas::TraceScope ts_permute(ctx, "getd.permute");
  // The host restores request order with one scatter: its caches hold the
  // whole output.  The charges price the paper machine's permute.  With
  // virtual threads enabled and an output larger than the modeled cache
  // it is output-blocked (one more level of Algorithm 1, the paper's
  // eq. 5, which pays ~n misses instead of m): a counting sort of the
  // (rank, value) pairs by cache-sized output block, then scatters within
  // each cache-resident block.  Otherwise it scatters directly
  // (store-buffered write misses over the whole output).
  for (std::size_t k = 0; k < kept; ++k) out[ws.rank[k]] = ws.reply[k];
  const std::size_t cache = ctx.mem().params().cache_bytes;
  const std::size_t out_bytes = m * sizeof(T);
  if (tprime > 1 && out_bytes > cache && kept > 512) {
    const std::size_t blk_elems =
        std::max<std::size_t>(1, cache / (2 * sizeof(T)));
    const std::size_t nb = (m + blk_elems - 1) / blk_elems;
    // Two streamed passes over the pairs plus cache-resident scatters.
    ctx.mem_seq(2 * kept * (sizeof(std::uint32_t) + sizeof(T)),
                Cat::Irregular);
    ctx.mem_random(2 * nb, nb * sizeof(std::size_t), sizeof(std::size_t),
                   Cat::Irregular);
    ctx.mem_random_write(kept, blk_elems * sizeof(T), sizeof(T),
                         Cat::Irregular);
  } else {
    ctx.mem_seq(kept * sizeof(T), Cat::Irregular);
    ctx.mem_random_write(kept, out_bytes, sizeof(T), Cat::Irregular);
  }
  ctx.compute(kept * detail::local_touch_ops(opt), Cat::Irregular);
}

}  // namespace pgraph::coll

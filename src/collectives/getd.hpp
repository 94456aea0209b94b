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
  const std::size_t w = vb.nbuckets();
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
    detail::compute_keys(ctx, vb, indices, opt, ws.keys, ws.keys_valid);

    ws.bucket_off.assign(w + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
      if (offload && indices[i] == known->index) continue;
      ++ws.bucket_off[ws.keys[i] + 1];
    }
    for (std::size_t k = 0; k < w; ++k)
      ws.bucket_off[k + 1] += ws.bucket_off[k];
    kept = ws.bucket_off[w];

    ws.sorted.resize(kept);
    ws.rank.resize(kept);
    ws.cursor.assign(ws.bucket_off.begin(), ws.bucket_off.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
      if (offload && indices[i] == known->index) {
        out[i] = static_cast<T>(known->value);
        continue;
      }
      const std::size_t pos = ws.cursor[ws.keys[i]]++;
      ws.sorted[pos] = indices[i];
      ws.rank[pos] = static_cast<std::uint32_t>(i);
    }
    detail::charge_group_sort(ctx, m, w, sizeof(std::uint64_t) + 4);

    detail::derive_thread_offsets(vb, ws.bucket_off, kept, ws.thr_off);
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
  const std::size_t touch_ops = detail::local_touch_ops(opt);
  {
  pgas::TraceScope ts(ctx, "getd.serve");
  const auto srow = cc.smatrix.local_span(me);
  const auto prow = cc.pmatrix.local_span(me);
  ctx.mem_seq(2 * static_cast<std::size_t>(s) * sizeof(std::uint64_t),
              Cat::Setup);
  const auto myblock = D.local_span(me);
  // Global -> local mapping of this owner's partition: subtracting the
  // span base IS the map for identity layouts (block, degree-aware); the
  // policy computes it otherwise.  `base` is only meaningful when `ident`.
  const auto& P = D.part();
  const bool ident = P.is_identity();
  const std::uint64_t base = D.block_begin(me);
  // Under an armed mem-flip plan a flipped label bit can escape into a
  // request index before the scrubber runs; bounds-guard the serve loop so
  // the epoch survives to be rolled back instead of faulting on a wild
  // read (docs/ROBUSTNESS.md, "At-rest integrity").
  const bool guard = ctx.runtime().mem_guard_active();
  const std::size_t line_bytes = ctx.mem().params().cache_line_bytes;
  const std::size_t line_elems = std::max<std::size_t>(1, line_bytes / sizeof(T));
  const std::size_t nlines = myblock.size() / line_elems + 1;
  ws.touched.assign((nlines + 63) / 64, 0);
  ctx.mem_seq(ws.touched.size() * 8, Cat::Copy);
  std::size_t distinct_lines = 0;
  // Hierarchical per-node combining.
  std::vector<std::size_t>& node_bytes = ws.node_bytes;
  if (opt.hierarchical)
    node_bytes.assign(static_cast<std::size_t>(ctx.nnodes()), 0);

  for (int step = 0; step < s; ++step) {
    const int j = detail::peer_at(opt, me, s, step);
    const std::size_t cnt = srow[static_cast<std::size_t>(j)];
    if (cnt == 0) continue;
    const std::size_t off = prow[static_cast<std::size_t>(j)];
    const std::uint64_t* ridx = ctx.peer_as<std::uint64_t>(j, kSlotIdx) + off;
    T* rbuf = ctx.peer_as<T>(j, kSlotData) + off;
    const std::size_t sum_bytes = chk ? sizeof(std::uint64_t) : 0;
    if (j != me) {
      const std::size_t bytes =
          cnt * (sizeof(std::uint64_t) + sizeof(T)) + sum_bytes;
      if (opt.hierarchical) {
        node_bytes[static_cast<std::size_t>(ctx.topo().node_of(j))] += bytes;
      } else {
        ctx.post_exchange_msg(j, cnt * sizeof(std::uint64_t));  // indices in
        ctx.post_exchange_msg(j, cnt * sizeof(T) + sum_bytes);  // data out
      }
    }
    std::size_t first_touches = 0;
    for (std::size_t k = 0; k < cnt; ++k) {
      std::uint64_t ri = ridx[k];
      // A wild ri underflows li past the size check on the identity path
      // (unsigned wrap); non-identity layouts also need the owner check —
      // a foreign index can map to an in-range local slot.
      std::uint64_t li = ident ? ri - base : P.local_of(ri);
      if (guard && (li >= myblock.size() ||
                    (!ident && P.owner_of(ri) != me))) [[unlikely]] {
        // Serve a dummy element and flag the corruption; the reply is
        // garbage either way and this epoch is about to be rolled back.
        ctx.runtime().note_corruption();
        ri = P.global_of(me, 0);
        li = 0;
      }
      assert(li < myblock.size() && (ident || P.owner_of(ri) == me));
      const std::size_t l = li / line_elems;
      if (!(ws.touched[l >> 6] & (1ull << (l & 63)))) {
        ws.touched[l >> 6] |= 1ull << (l & 63);
        ++first_touches;
      }
      rbuf[k] = myblock[li];
      // Owner-side read through the raw block pointer: make it visible to
      // the race detector (a stray same-epoch write would corrupt replies).
      D.note_read(ctx, ri);
    }
    if (chk) {
      // Deposit the batch checksum into the requester's sum array (slot
      // indexed by owner); validated requester-side after the exchange.
      ctx.peer_as<std::uint64_t>(j, kSlotSum)[me] =
          fault::checksum_words(rbuf, cnt * sizeof(T));
      ctx.compute(cnt, Cat::Copy);
    }
    distinct_lines += first_touches;
    // Streamed read of the incoming index list; compulsory line fills for
    // first touches; reuse accesses over the effective working set (the
    // sub-block, or the touched footprint if smaller — duplicated requests
    // stay cached).
    ctx.mem_seq(cnt * sizeof(std::uint64_t), Cat::Copy);
    ctx.mem_compulsory(first_touches, sizeof(T), Cat::Copy);
    const std::size_t ws_eff =
        std::min(vb.sub_blk * sizeof(T), distinct_lines * line_bytes);
    ctx.mem_random(cnt - first_touches, ws_eff, sizeof(T), Cat::Copy);
    ctx.compute(cnt * touch_ops, Cat::Copy);
  }
  if (opt.hierarchical) {
    // One combined message per node pair, visited in circular node order.
    // Targets resolve through the live leader map so a post-shrink run
    // addresses the buddy that adopted a lost node's threads; a dead node
    // accumulates no bytes (node_of never maps a thread to it).
    const int p = ctx.nnodes();
    for (int step = 0; step < p; ++step) {
      const int nd = (ctx.node() + step) % p;
      if (node_bytes[static_cast<std::size_t>(nd)] > 0)
        ctx.post_exchange_msg(ctx.topo().leader_of_node(nd),
                              node_bytes[static_cast<std::size_t>(nd)]);
    }
  }
  }  // getd.serve
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
      int tries = 0;
      while (fault::checksum_words(ws.reply.data() + off, cnt * sizeof(T)) !=
             ws.sums[static_cast<std::size_t>(j)]) {
        if (tries++ >= finj->config().max_retries)
          throw fault::FaultError(fault::FaultKind::Corruption,
                                  "getd: reply batch unrecoverable");
        finj->count_detected();
        ctx.charge(Cat::Comm,
                   ctx.net().msg_wire_ns(cnt * sizeof(T) + 24) +
                       finj->config().backoff_ns_for(tries - 1));
        ctx.net().count_message(cnt * sizeof(T) + 24);
        finj->count_retransmits(1);
        finj->repair(ws.reply.data() + off, cnt * sizeof(T));
        ctx.compute(cnt, Cat::Copy);  // re-validate the fresh copy
      }
    }
  }

  // --- permute (requester side) -------------------------------------------
  pgas::TraceScope ts_permute(ctx, "getd.permute");
  // With virtual threads enabled the permute is output-blocked (one more
  // level of Algorithm 1, matching the paper's eq. 5 which pays ~n misses
  // instead of m): group the (rank, value) pairs by cache-sized output
  // block with a counting sort — sequential traffic — then scatter within
  // each cache-resident block.  Otherwise scatter directly (store-buffered
  // write misses over the whole output).
  const std::size_t cache = ctx.mem().params().cache_bytes;
  const std::size_t out_bytes = m * sizeof(T);
  if (tprime > 1 && out_bytes > cache && kept > 512) {
    const std::size_t blk_elems =
        std::max<std::size_t>(1, cache / (2 * sizeof(T)));
    const std::size_t nb = (m + blk_elems - 1) / blk_elems;
    ws.perm_off.assign(nb + 1, 0);
    for (std::size_t k = 0; k < kept; ++k)
      ++ws.perm_off[ws.rank[k] / blk_elems + 1];
    for (std::size_t b = 0; b < nb; ++b) ws.perm_off[b + 1] += ws.perm_off[b];
    ws.perm_rank.resize(kept);
    ws.perm_val.resize(kept);
    ws.cursor.assign(ws.perm_off.begin(), ws.perm_off.end() - 1);
    for (std::size_t k = 0; k < kept; ++k) {
      const std::size_t pos = ws.cursor[ws.rank[k] / blk_elems]++;
      ws.perm_rank[pos] = ws.rank[k];
      ws.perm_val[pos] = ws.reply[k];
    }
    for (std::size_t j = 0; j < kept; ++j)
      out[ws.perm_rank[j]] = ws.perm_val[j];
    // Two streamed passes over the pairs plus cache-resident scatters.
    ctx.mem_seq(2 * kept * (sizeof(std::uint32_t) + sizeof(T)),
                Cat::Irregular);
    ctx.mem_random(2 * nb, nb * sizeof(std::size_t), sizeof(std::size_t),
                   Cat::Irregular);
    ctx.mem_random_write(kept, blk_elems * sizeof(T), sizeof(T),
                         Cat::Irregular);
  } else {
    for (std::size_t k = 0; k < kept; ++k) out[ws.rank[k]] = ws.reply[k];
    ctx.mem_seq(kept * sizeof(T), Cat::Irregular);
    ctx.mem_random_write(kept, out_bytes, sizeof(T), Cat::Irregular);
  }
  ctx.compute(kept * touch_ops, Cat::Irregular);
}

}  // namespace pgraph::coll

#pragma once

#include <cstdint>
#include <span>

#include "collectives/conformance_hook.hpp"
#include "collectives/crcw.hpp"
#include "collectives/detail.hpp"
#include "pgas/trace_hook.hpp"

namespace pgraph::coll {

namespace detail_combine {

/// Arbitrary CRCW: among concurrent writers one wins; in this
/// implementation the winner is the last applied in the owner's
/// deterministic peer order, making runs reproducible for a fixed
/// configuration.
template <class T>
struct Overwrite {
  static constexpr CrcwMode kMode = CrcwMode::Overwrite;
  void operator()(T& dst, T v) const { dst = v; }
};

/// Priority CRCW: the minimum value wins — SetDMin, the collective the
/// paper introduces to remove MST's fine-grained locks ("when multiple
/// threads compete to write to the same location the request with the
/// smallest value wins").
template <class T>
struct Min {
  static constexpr CrcwMode kMode = CrcwMode::Min;
  void operator()(T& dst, T v) const {
    if (v < dst) dst = v;
  }
};

/// Combining CRCW: concurrent writes to the same location sum — the
/// classic combining-network semantics, used by the streaming layer to
/// accumulate per-component sizes in one collective pass.
template <class T>
struct Add {
  static constexpr CrcwMode kMode = CrcwMode::Add;
  void operator()(T& dst, T v) const { dst += v; }
};

}  // namespace detail_combine

/// Common machinery of SetD / SetDMin: bulk concurrent write of
/// D[indices[i]] = values[i], resolved per element with `combine`.
template <class T, class Combine>
void setd_combine(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
                  std::span<const std::uint64_t> indices,
                  std::span<const T> values, const CollectiveOptions& opt,
                  CollectiveContext& cc, CollWorkspace<T>& ws,
                  Combine combine) {
  using detail::Cat;
  static_assert(sizeof(T) == 8 || sizeof(T) == 16,
                "collectives carry one- or two-word records");
  assert(values.size() == indices.size());

  const int s = ctx.nthreads();
  const int me = ctx.id();
  const std::size_t m = indices.size();
  const int tprime =
      detail::resolve_tprime(ctx, opt, D.part().max_local_size(), sizeof(T));
  const sched::VBlocks vb(D.part(), tprime);
  const std::size_t w = vb.nbuckets();
#ifdef PGRAPH_CHECK_ACCESS
  conformance_note(ctx, crcw_coll_op(Combine::kMode), opt.site,
                   collective_sig(D.uid(), D.size(), sizeof(T),
                                  static_cast<int>(Combine::kMode), tprime,
                                  opt));
#endif
  // Checksum protocol (docs/ROBUSTNESS.md): the requester seals each
  // outgoing (index, value) batch with a checksum before it is exposed;
  // owners validate *before applying* — a corrupted index must never be
  // dereferenced — and re-request damaged batches at retransmission cost.
  fault::FaultInjector* const finj = ctx.runtime().fault_injector();
  const bool chk = finj != nullptr && finj->config().corruption_enabled();

  // --- group: stable sort (index, value) pairs by virtual block ----------
  {
    pgas::TraceScope ts(ctx, "setd.group");
    detail::compute_keys(ctx, vb, indices, opt, ws.keys, ws.keys_valid);

    ws.bucket_off.assign(w + 1, 0);
    for (std::size_t i = 0; i < m; ++i) ++ws.bucket_off[ws.keys[i] + 1];
    for (std::size_t k = 0; k < w; ++k)
      ws.bucket_off[k + 1] += ws.bucket_off[k];

    ws.sorted.resize(m);
    ws.sorted_val.resize(m);
    ws.cursor.assign(ws.bucket_off.begin(), ws.bucket_off.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t pos = ws.cursor[ws.keys[i]]++;
      ws.sorted[pos] = indices[i];
      ws.sorted_val[pos] = values[i];
    }
    detail::charge_group_sort(ctx, m, w, sizeof(std::uint64_t) + sizeof(T));

    detail::derive_thread_offsets(vb, ws.bucket_off, m, ws.thr_off);
  }

  if (chk) {
    // Seal every outgoing batch, then let the injector damage the staged
    // buffers — modeling corruption on the wire, caught owner-side.
    ws.sums.assign(static_cast<std::size_t>(s), 0);
    for (int j = 0; j < s; ++j) {
      const std::size_t off = ws.thr_off[static_cast<std::size_t>(j)];
      const std::size_t cnt =
          ws.thr_off[static_cast<std::size_t>(j) + 1] - off;
      if (cnt == 0) continue;
      ws.sums[static_cast<std::size_t>(j)] =
          fault::checksum_words(ws.sorted.data() + off,
                                cnt * sizeof(std::uint64_t)) ^
          fault::checksum_words(ws.sorted_val.data() + off, cnt * sizeof(T));
    }
    ctx.compute(2 * m, Cat::Copy);
    finj->corrupt(ws.sorted.data(), m * sizeof(std::uint64_t), ctx.epoch(),
                  me, /*tag=*/1);
    finj->corrupt(ws.sorted_val.data(), m * sizeof(T), ctx.epoch(), me,
                  /*tag=*/2);
  }

  // --- setup --------------------------------------------------------------
  {
    pgas::TraceScope ts(ctx, "setd.setup");
    ctx.publish(kSlotIdx, ws.sorted.data());
    ctx.publish(kSlotVal, ws.sorted_val.data());
    if (chk) ctx.publish(kSlotSum, ws.sums.data());
    detail::write_matrices(ctx, cc, ws.thr_off, opt);
  }
  ctx.exchange_barrier();

  // --- apply (owner side) ---------------------------------------------------
  // Declare the CRCW combine window: concurrent writes to D are resolved
  // by `combine`'s rule from here to the end of the collective, and each
  // applied element is noted so the race detector can see collisions with
  // stray same-epoch fine-grained traffic.
  CrcwRegion<T> crcw(D, Combine::kMode);
  {
  pgas::TraceScope ts(ctx, "setd.apply");
  const auto srow = cc.smatrix.local_span(me);
  const auto prow = cc.pmatrix.local_span(me);
  ctx.mem_seq(2 * static_cast<std::size_t>(s) * sizeof(std::uint64_t),
              Cat::Setup);
  const auto myblock = D.local_span(me);
  // Global -> local mapping of this owner's partition (see getd.serve):
  // `base` subtraction is the map for identity layouts only.
  const auto& P = D.part();
  const bool ident = P.is_identity();
  const std::uint64_t base = D.block_begin(me);
  // At-rest integrity: this loop is D's tracked commit point.  Once a
  // scrub pass baselined this partition, every applied element folds an
  // O(1) digest delta into the partition checksum (the old value is
  // already in cache for the combine, so the modeled cost is unchanged).
  const bool track = D.integrity_tracking_thread(me);
  // Under an armed mem-flip plan, bounds-guard the apply loop: a flipped
  // label bit escaping into a request index must not fault (or scribble)
  // before the rollback machinery can discard the epoch.
  const bool guard = ctx.runtime().mem_guard_active();
  const std::size_t touch_ops = detail::local_touch_ops(opt);
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
    const T* rval = ctx.peer_as<T>(j, kSlotVal) + off;
    if (j != me) {
      // One coalesced message carrying (index, value) records (combined
      // per node pair when hierarchical), plus the batch checksum when
      // the fault protocol is on.
      const std::size_t bytes =
          cnt * (sizeof(std::uint64_t) + sizeof(T)) + (chk ? 8 : 0);
      if (opt.hierarchical) {
        node_bytes[static_cast<std::size_t>(ctx.topo().node_of(j))] += bytes;
      } else {
        ctx.post_exchange_msg(j, bytes);
      }
    }
    if (chk) {
      // Validate before applying: a corrupted batch is repaired by a
      // modeled retransmission (round trip + backoff) from requester j.
      const std::uint64_t expect = ctx.peer_as<std::uint64_t>(j, kSlotSum)[me];
      ctx.compute(2 * cnt, Cat::Copy);
      int tries = 0;
      while ((fault::checksum_words(ridx, cnt * sizeof(std::uint64_t)) ^
              fault::checksum_words(rval, cnt * sizeof(T))) != expect) {
        if (tries++ >= finj->config().max_retries)
          throw fault::FaultError(fault::FaultKind::Corruption,
                                  "setd: request batch unrecoverable");
        finj->count_detected();
        ctx.charge(Cat::Comm,
                   ctx.net().msg_wire_ns(
                       cnt * (sizeof(std::uint64_t) + sizeof(T)) + 24) +
                       finj->config().backoff_ns_for(tries - 1));
        ctx.net().count_message(cnt * (sizeof(std::uint64_t) + sizeof(T)) +
                                24);
        finj->count_retransmits(1);
        finj->repair(const_cast<std::uint64_t*>(ridx),
                     cnt * sizeof(std::uint64_t));
        finj->repair(const_cast<T*>(rval), cnt * sizeof(T));
        ctx.compute(2 * cnt, Cat::Copy);
      }
    }
    std::size_t first_touches = 0;
    for (std::size_t k = 0; k < cnt; ++k) {
      const std::uint64_t ri = ridx[k];
      // Wild indices wrap li past the size check on the identity path;
      // non-identity layouts also need the owner check (a foreign index
      // can map to an in-range local slot).
      const std::uint64_t li = ident ? ri - base : P.local_of(ri);
      if (guard && (li >= myblock.size() ||
                    (!ident && P.owner_of(ri) != me))) [[unlikely]] {
        // Never apply a corruption-derived write: flag it and skip — the
        // epoch rolls back at the next loop-top recovery poll anyway.
        ctx.runtime().note_corruption();
        continue;
      }
      assert(li < myblock.size() && (ident || P.owner_of(ri) == me));
      const std::size_t l = li / line_elems;
      if (!(ws.touched[l >> 6] & (1ull << (l & 63)))) {
        ws.touched[l >> 6] |= 1ull << (l & 63);
        ++first_touches;
      }
      T& dst = myblock[li];
      if (track) {
        const T oldv = dst;
        combine(dst, rval[k]);
        D.integrity_note(me, ri, oldv, dst);
      } else {
        combine(dst, rval[k]);
      }
      crcw.note(ctx, ri);
    }
    distinct_lines += first_touches;
    ctx.mem_seq(cnt * (sizeof(std::uint64_t) + sizeof(T)), Cat::Copy);
    ctx.mem_compulsory(first_touches, sizeof(T), Cat::Copy);
    const std::size_t ws_eff =
        std::min(vb.sub_blk * sizeof(T), distinct_lines * line_bytes);
    ctx.mem_random(cnt - first_touches, ws_eff, sizeof(T), Cat::Copy);
    ctx.compute(cnt * touch_ops, Cat::Copy);
  }
  if (opt.hierarchical) {
    const int p = ctx.nnodes();
    for (int step = 0; step < p; ++step) {
      const int nd = (ctx.node() + step) % p;
      if (node_bytes[static_cast<std::size_t>(nd)] > 0)
        ctx.post_exchange_msg(ctx.topo().leader_of_node(nd),
                              node_bytes[static_cast<std::size_t>(nd)]);
    }
  }
  }  // setd.apply
  ctx.exchange_barrier();
}

/// SetD: arbitrary concurrent write.
template <class T>
void setd(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
          std::span<const std::uint64_t> indices, std::span<const T> values,
          const CollectiveOptions& opt, CollectiveContext& cc,
          CollWorkspace<T>& ws) {
  setd_combine(ctx, D, indices, values, opt, cc, ws,
               detail_combine::Overwrite<T>{});
}

/// SetDMin: priority concurrent write (minimum wins).
template <class T>
void setd_min(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
              std::span<const std::uint64_t> indices,
              std::span<const T> values, const CollectiveOptions& opt,
              CollectiveContext& cc, CollWorkspace<T>& ws) {
  setd_combine(ctx, D, indices, values, opt, cc, ws,
               detail_combine::Min<T>{});
}

/// SetDAdd: combining concurrent write (values sum).  The targets must be
/// pre-zeroed (or hold the running totals the caller wants to extend).
template <class T>
void setd_add(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
              std::span<const std::uint64_t> indices,
              std::span<const T> values, const CollectiveOptions& opt,
              CollectiveContext& cc, CollWorkspace<T>& ws) {
  setd_combine(ctx, D, indices, values, opt, cc, ws,
               detail_combine::Add<T>{});
}

}  // namespace pgraph::coll

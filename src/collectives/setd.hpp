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
    detail::group_by_vblock(
        ctx, vb, indices, opt, ws, ws.sorted_val,
        [&](std::size_t i) { return values[i]; },
        [](std::size_t) { return false; }, [](std::size_t) {});
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
      ws.sums[static_cast<std::size_t>(j)] = detail::batch_checksum(
          {{ws.sorted.data() + off, cnt * sizeof(std::uint64_t)},
           {ws.sorted_val.data() + off, cnt * sizeof(T)}});
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
    // At-rest integrity: this loop is D's tracked commit point.  Once a
    // scrub pass baselined this partition, every applied element folds an
    // O(1) digest delta into the partition checksum (the old value is
    // already in cache for the combine, so the modeled cost is unchanged).
    const bool track = D.replica().tracking(me);
    // One coalesced message of (index, value) records per remote batch.
    detail::owner_walk(
        ctx, D, cc, ws, opt, vb, {sizeof(std::uint64_t) + sizeof(T), 0},
        kSlotVal, chk,
        // Never apply a corruption-derived write: skip it — the epoch
        // rolls back at the next loop-top recovery poll anyway.
        [](std::uint64_t&, std::uint64_t&) { return false; },
        [&](std::uint64_t ri, T& dst, const T& v) {
          if (track) {
            const T oldv = dst;
            combine(dst, v);
            D.integrity_note(me, ri, oldv, dst);
          } else {
            combine(dst, v);
          }
          crcw.note(ctx, ri);
        });
  }
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

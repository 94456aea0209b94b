#pragma once

#include <cstdint>
#include <vector>

#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::coll {

/// Registry slots used by the collectives (see ThreadCtx::publish).
inline constexpr int kSlotIdx = 0;   ///< sorted request indices
inline constexpr int kSlotData = 1;  ///< reply buffer (GetD)
inline constexpr int kSlotVal = 2;   ///< sorted request values (SetD/SetDMin)
inline constexpr int kSlotCnt = 3;   ///< per-owner offsets (hierarchical)
inline constexpr int kSlotSum = 4;   ///< per-batch payload checksums (fault
                                     ///< protocol; see docs/ROBUSTNESS.md)

/// Shared state of Algorithm 2, allocated once per algorithm run.
///
/// Row layout: entry [owner * s + requester].
///  - smatrix: how many elements `requester` needs from / sends to `owner`
///    ("SMatrix[i][j] is the number of elements thr_i sends to thr_j").
///  - pmatrix: offset of that batch inside the requester's sorted request
///    array and reply buffer ("the position in thr_j's buffer where thr_i
///    should deposit the elements").
///
/// Row i has affinity to thread i, so filling column `me` costs one
/// fine-grained remote put per peer — the s^2 small-message all-to-all
/// burst that Section VI identifies as the t=16 scaling bottleneck.
struct CollectiveContext {
  pgas::GlobalArray<std::uint64_t> smatrix;
  pgas::GlobalArray<std::uint64_t> pmatrix;

  /// last_cnt[requester][owner]: the count this requester published to
  /// that owner on its previous collective over this context.  Because
  /// the matrices persist across calls, a requester whose batch for an
  /// owner is empty now *and* was empty last time can skip the setup put
  /// entirely (the remote entry already reads zero) — degenerate batches
  /// must not pay the s^2 all-to-all burst.  Row r is written only by
  /// thread r (flat) or by r's node leader (hierarchical), and the two
  /// cases are barrier-separated, so no synchronization is needed.
  std::vector<std::vector<std::uint64_t>> last_cnt;

  /// last_shrinks[r]: the topology's shrink count when row r was last
  /// written.  A shrink promotes the buddy mirrors of *every* replicated
  /// array — smatrix/pmatrix included — so the lost node's rows snap back
  /// to checkpoint-time counts the cache does not describe; skipping an
  /// "already zero" entry would leave a stale count for the adopted owner
  /// to serve out of the requester's buffers.  The first write after the
  /// count moved therefore republishes every entry, zeros included.
  std::vector<int> last_shrinks;

  explicit CollectiveContext(pgas::Runtime& rt)
      : smatrix(rt, square(rt.topo().total_threads())),
        pmatrix(rt, square(rt.topo().total_threads())),
        last_cnt(static_cast<std::size_t>(rt.topo().total_threads()),
                 std::vector<std::uint64_t>(
                     static_cast<std::size_t>(rt.topo().total_threads()), 0)),
        last_shrinks(static_cast<std::size_t>(rt.topo().total_threads()),
                     rt.topo().shrinks) {}

 private:
  static std::size_t square(int s) {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(s);
  }
};

/// The `id` optimization's per-request virtual-block keys, kept across
/// calls only by a workspace that serves one request column.
struct KeyCache {
  std::vector<std::uint32_t> keys;  ///< virtual-block key per request
  bool keys_valid = false;          ///< keys still describe the column

  void invalidate_keys() { keys_valid = false; }
};

/// Per-thread scratch that persists across collective calls so buffers are
/// allocated once.  Every call recomputes the `id` keys unless the workspace
/// was built with keep_keys for one request column, whose owner keeps them
/// current (compact_requests aligns them; a rollback drops them).
template <class T>
struct CollWorkspace : KeyCache {
  CollWorkspace() = default;
  explicit CollWorkspace(bool keep) : keep_keys(keep) {}

  const bool keep_keys = false;       ///< serves one request column
  std::vector<std::uint64_t> sorted;  ///< request indices in bucket order
  std::vector<T> sorted_val;          ///< values in bucket order (SetD*)
  std::vector<std::uint32_t> rank;    ///< original slot of sorted[k]
  std::vector<std::size_t> bucket_off;
  std::vector<std::size_t> thr_off;  ///< per-owner-thread offsets (s+1)
  std::vector<T> reply;              ///< GetD replies, bucket order
  std::vector<std::uint64_t> sums;   ///< per-batch checksums, indexed by the
                                     ///< batch's *other* end (owner thread in
                                     ///< GetD, filled by owners; requester's
                                     ///< own batches in SetD, read by owners)

  // Line-granular first-touch bitmap over the owner's block, used during
  // the serve/apply phase to charge compulsory misses exactly once and
  // reuse accesses at their (often cached) cost — duplicated requests,
  // e.g. pointer-jumping reads of a few hot labels, hit in cache on the
  // real machine and must do so in the model too.
  std::vector<std::uint64_t> touched;

  // Per-call scratch kept here so a collective allocates nothing in the
  // steady state: the counting-sort write cursors and the per-node byte
  // totals of the hierarchical sends.
  std::vector<std::size_t> cursor;
  std::vector<std::size_t> node_bytes;
};

}  // namespace pgraph::coll

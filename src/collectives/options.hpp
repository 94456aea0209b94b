#pragma once

#include <cstddef>

namespace pgraph::coll {

/// Toggles for the Section V optimizations.  Each maps 1:1 to a bar of
/// Figure 5/6; `compact` is algorithm-level (see core/cc_coalesced) and so
/// lives in the algorithm options, not here.
struct CollectiveOptions {
  /// Exchange-loop order: thread i serves peers i, i+1, ..., (i+s-1) mod s
  /// instead of 0, 1, ..., s-1, so no peer is hit by all threads in the
  /// same step ("circular").
  bool circular = false;

  /// Access the local portion of shared arrays through private pointer
  /// arithmetic instead of the compiler's shared-pointer runtime calls
  /// ("localcpy").
  bool localcpy = false;

  /// Compute target thread/block keys with direct (vectorizable)
  /// arithmetic instead of the upc_threadof intrinsic, and let a workspace
  /// built for one request column reuse them across calls ("id": "the
  /// target ids do not change across iteration"; see CollWorkspace).
  bool id = false;

  /// Drop GetD requests for a known-constant element (D[0] = 0 in CC) and
  /// substitute the value locally ("offload").
  bool offload = false;

  /// Virtual threads per physical thread: requests are grouped into
  /// s * tprime sub-blocks so the owner's gather/apply working set is
  /// block/tprime (the third recursion level of Algorithm 1).  0 = choose
  /// automatically so one sub-block fits the modeled cache ("the size of
  /// t' is chosen such that the block fits into a certain level cache
  /// hierarchy", Section IV).
  int tprime = 1;

  /// EXTENSION (the paper's future-work proposal, Section VI): expose the
  /// thread-process hierarchy to the collectives.  The SMatrix/PMatrix
  /// setup is aggregated per node — one leader thread ships its node's t*t
  /// count/offset tile to each remote node in one message (p^2 messages
  /// instead of the s^2 fine-grained burst that collapses t=16), and the
  /// serve phase's data messages are combined per node pair.  Off by
  /// default: the paper's measured configurations do not include it.
  bool hierarchical = false;

  /// Conformance-verifier site tag: distinguishes textually distinct call
  /// sites that are otherwise identical (same op, same arrays).  Must be a
  /// string literal (the verifier interns by content, but never copies the
  /// lifetime burden onto callers mid-collective).  nullptr = anonymous
  /// site, fingerprinted by op kind and argument signature alone.
  const char* site = nullptr;

  /// The Figure 5 "base" configuration: two recursion levels (cluster +
  /// node via the by-thread grouping), no engineering optimizations.
  static CollectiveOptions base() { return CollectiveOptions{}; }

  /// Everything on (the paper's final configuration); t' defaults to the
  /// cache-fitting automatic choice.
  static CollectiveOptions optimized(int tprime = 0) {
    CollectiveOptions o;
    o.circular = true;
    o.localcpy = true;
    o.id = true;
    o.offload = true;
    o.tprime = tprime;
    return o;
  }
};

/// Abstract-op cost constants for the modeled effects of `id` and
/// `localcpy` (in units of CostParams::cpu_op_ns).
inline constexpr std::size_t kIntrinsicKeyOps = 32;  // upc_threadof call
inline constexpr std::size_t kDirectKeyOps = 3;      // div+mul, vectorizable
inline constexpr std::size_t kSharedPtrOps = 14;     // shared-ptr runtime
inline constexpr std::size_t kPrivatePtrOps = 1;     // raw pointer

}  // namespace pgraph::coll

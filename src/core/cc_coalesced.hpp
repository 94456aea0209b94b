#pragma once

#include "collectives/options.hpp"
#include "core/par_common.hpp"
#include "graph/edge_list.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// Options for the collective-based CC/SV implementations.
struct CcOptions {
  coll::CollectiveOptions coll = coll::CollectiveOptions::optimized();
  /// Filter out edges whose endpoints already share a component
  /// ("compact", Section V).
  bool compact = true;
  int max_iters = 0;  ///< 0 = auto bound
  /// At-rest integrity (docs/ROBUSTNESS.md): scrub the label array's
  /// resident partitions every k real loop trips (0 = off).  With
  /// scrubbing on, fresh checkpoints and buddy mirrors are only taken on
  /// scrub-validated trips, so corruption can never be sealed into the
  /// very state a repair would restore from.
  int scrub_interval = 0;

  static CcOptions base() {
    CcOptions o;
    o.coll = coll::CollectiveOptions::base();
    o.compact = false;
    return o;
  }
  static CcOptions optimized(int tprime = 0) {
    CcOptions o;
    o.coll = coll::CollectiveOptions::optimized(tprime);
    o.compact = true;
    return o;
  }
};

/// CC rewritten with the GetD/SetD collectives (Section IV): grafting reads
/// and writes are coalesced, and the asynchronous short-cutting of CC-SMP
/// is replaced by lock-step pointer jumping ("we insert artificial
/// synchronizations into pointer-jumping... the modification makes
/// communication coalescing possible").
ParCCResult cc_coalesced(pgas::Runtime& rt, const graph::EdgeList& el,
                         const CcOptions& opt = {});

/// The classic Shiloach-Vishkin algorithm rewritten with collectives
/// (Section IV): conditional grafting onto roots, opportunistic grafting of
/// stagnant stars, and a single pointer jump per iteration.  Slower than CC
/// "due to more collective calls in one iteration".
ParCCResult sv_coalesced(pgas::Runtime& rt, const graph::EdgeList& el,
                         const CcOptions& opt = {});

}  // namespace pgraph::core

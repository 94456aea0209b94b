#pragma once

#include "core/par_common.hpp"
#include "core/recovery.hpp"
#include "graph/edge_list.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// One SPMD thread's side of CC's round (Section IV), shared by
/// cc_coalesced and stream::cc_incremental: the thread's edge chunk as
/// endpoint requests, their labels, the graft buffers and the collective
/// workspaces.  Construct it on every thread of the run, after the label
/// array holds its starting labels.
class CcRounds {
 public:
  CcRounds(pgas::ThreadCtx& ctx, pgas::GlobalArray<std::uint64_t>& d,
           coll::CollectiveContext& cc, const std::vector<graph::Edge>& edges,
           const CcOptions& opt);
  // RecoveryLoop holds pointers into it (state()).
  CcRounds(const CcRounds&) = delete;
  CcRounds& operator=(const CcRounds&) = delete;

  /// One round: GetD both endpoint labels, SetD-graft the larger root
  /// under the smaller, pointer-jump in lock step to rooted stars, then
  /// (with opt.compact) drop edges whose endpoints already shared a
  /// label.  Returns false, on every thread alike, once no edge hooks.
  bool step();

  /// What a rollback restores besides the label block: the request
  /// columns shrink under compaction, and their kept keys follow them.
  RecoveryLoop::Private state() {
    return {.vectors = {&eu_, &ev_}, .key_caches = {&ws_u_, &ws_v_}};
  }

 private:
  pgas::ThreadCtx& ctx_;
  pgas::GlobalArray<std::uint64_t>& d_;
  coll::CollectiveContext& cc_;
  const CcOptions& opt_;
  std::vector<std::uint64_t> eu_, ev_, du_, dv_, gi_, gv_, par_, grand_;
  // The endpoint columns keep their `id` keys; the others are scratch.
  coll::CollWorkspace<std::uint64_t> ws_u_{true}, ws_v_{true};
  coll::CollWorkspace<std::uint64_t> ws_set_, ws_jump_;
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

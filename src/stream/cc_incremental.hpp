#pragma once

#include <cstdint>
#include <vector>

#include "collectives/context.hpp"
#include "core/cc_coalesced.hpp"
#include "core/par_common.hpp"
#include "graph/edge_list.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::stream {

/// Result of one incremental maintenance pass.
struct IncrementalResult {
  int iterations = 0;  ///< graft+jump rounds until no fresh edge grafted
  core::RunCosts costs;
};

/// Incremental connectivity maintenance: fold a batch of freshly inserted
/// edges into an existing canonical labeling.
///
/// Precondition: `d` holds the canonical CC labels of the pre-batch graph
/// — every vertex labeled with the minimum vertex id of its component,
/// i.e. exactly the fixed point `cc_coalesced` converges to.  The pass
/// runs cc_coalesced's round itself (`core::CcRounds`: GetD endpoint
/// labels, graft larger root under smaller via SetD, lock-step pointer
/// jumping to rooted stars, compact) on its `core::RecoveryLoop`, but over
/// ONLY the fresh edges: components untouched by the batch cost nothing
/// beyond the degenerate-batch floor of the collectives.
///
/// Bit-identity: the canonical min-id labeling of a graph is unique, and
/// grafting the fresh edges into the old stars converges to the canonical
/// labeling of the union graph — so after this pass `d` is bit-identical
/// to a fresh `cc_coalesced` run over the materialized edge set.
/// Deletions are NOT handled here (they can split components); callers
/// route deletion batches through the full-rebuild fallback.
///
/// `opt.coll` drives the collectives (all Section V optimizations apply);
/// `opt.compact` drops fresh edges once their endpoints share a label.
/// With an outage, loss or flip plan the loop checkpoints `d` and mirrors
/// it to the buddy, so the pass rolls back in place; a permanent loss
/// before its first sealed checkpoint surfaces as
/// FaultError{PermanentLoss} for the caller's rebuild path.
///
/// Calls rt.reset_costs(); the returned costs cover only this pass.
IncrementalResult cc_incremental(pgas::Runtime& rt,
                                 pgas::GlobalArray<std::uint64_t>& d,
                                 const std::vector<graph::Edge>& fresh,
                                 const core::CcOptions& opt);

}  // namespace pgraph::stream

#pragma once

#include "core/par_common.hpp"
#include "graph/edge_list.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// Boruvka takes CC's knobs: collective options, compaction, the round
/// cap and the scrub interval of its label array.
using MstOptions = CcOptions;

/// Parallel Boruvka rewritten with GetD / SetDMin (Section IV): the
/// SetDMin priority-write collective replaces MST-SMP's fine-grained locks
/// for the minimum-weight-edge reduction per supervertex.  Requires
/// weights < 2^32 and edge count < 2^32 (packed (w, id) records).
ParMstResult mst_pgas(pgas::Runtime& rt, const graph::WEdgeList& el,
                      const MstOptions& opt = {});

/// Spanning forest of an unweighted graph ("the closely-related spanning
/// tree problem", Section II): Boruvka with unit weights, so the per-
/// supervertex SetDMin reduction picks the smallest-id incident edge and
/// the result is a deterministic spanning forest (edge ids into `el`).
ParMstResult spanning_tree_pgas(pgas::Runtime& rt, const graph::EdgeList& el,
                                const MstOptions& opt = {});

}  // namespace pgraph::core

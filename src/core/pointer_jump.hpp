#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/getd.hpp"
#include "machine/phase_stats.hpp"
#include "pgas/coll.hpp"
#include "pgas/global_array.hpp"

namespace pgraph::core {

/// Initialize D[i] = i over the caller's block, then barrier.
inline void init_labels(pgas::ThreadCtx& ctx,
                        pgas::GlobalArray<std::uint64_t>& d) {
  auto blk = d.local_span(ctx.id());
  // blk[k] holds the k-th element the caller OWNS; its global index comes
  // from the distribution policy (== block_begin + k under block layouts).
  for (std::size_t k = 0; k < blk.size(); ++k)
    blk[k] = d.global_index(ctx.id(), k);
  ctx.mem_seq(blk.size() * sizeof(std::uint64_t), machine::Cat::Work);
  ctx.barrier();
}

/// One lock-step pointer-jumping round over the caller's block:
/// D[i] <- D[D[i]] via GetD ("the algorithm applies pointer-jumping to all
/// vertices in lock step", Section IV).  Returns whether any label changed
/// locally.  `ws` must be a scratch workspace: the parents change every
/// round.
///
/// `known` enables the offload optimization and must only be passed when
/// the algorithm guarantees the element stays constant: true for CC (labels
/// hook larger-under-smaller, so D[0] == 0 forever), FALSE for Boruvka
/// (the minimum edge can hook root 0 under another root).
inline bool jump_round(pgas::ThreadCtx& ctx,
                       pgas::GlobalArray<std::uint64_t>& d,
                       const coll::CollectiveOptions& copt,
                       coll::CollectiveContext& cc,
                       coll::CollWorkspace<std::uint64_t>& ws,
                       std::vector<std::uint64_t>& par,
                       std::vector<std::uint64_t>& grand,
                       std::optional<coll::KnownElement> known = std::nullopt) {
  auto blk = d.local_span(ctx.id());
  par.assign(blk.begin(), blk.end());
  ctx.mem_seq(par.size() * sizeof(std::uint64_t), machine::Cat::Copy);
  grand.resize(par.size());
  coll::getd(ctx, d, par, std::span<std::uint64_t>(grand), copt, cc, ws,
             known);
  // Direct local writes are a checksum commit point for scrubbed arrays.
  const bool track = d.replica().tracking(ctx.id());
  bool changed = false;
  for (std::size_t k = 0; k < par.size(); ++k) {
    if (grand[k] != par[k]) {
      if (track)
        d.integrity_note(ctx.id(), d.global_index(ctx.id(), k), par[k],
                         grand[k]);
      blk[k] = grand[k];
      changed = true;
    }
  }
  ctx.mem_seq(par.size() * sizeof(std::uint64_t), machine::Cat::Copy);
  ctx.compute(par.size(), machine::Cat::Work);
  return changed;
}

/// Lock-step pointer jumping "until all trees become rooted stars".  A
/// forest of depth h settles in ceil(log2 h) jumps, plus one that changes
/// nothing; labels still changing after bit_width(n) + 2 jumps hold a
/// cycle, and every thread throws (each jump ends in a collective).
inline void jump_to_stars(pgas::ThreadCtx& ctx,
                          pgas::GlobalArray<std::uint64_t>& d,
                          const coll::CollectiveOptions& copt,
                          coll::CollectiveContext& cc,
                          coll::CollWorkspace<std::uint64_t>& ws,
                          std::vector<std::uint64_t>& par,
                          std::vector<std::uint64_t>& grand,
                          std::optional<coll::KnownElement> known =
                              std::nullopt) {
  const int cap = std::bit_width(d.size()) + 2;
  for (int jumps = 1;; ++jumps) {
    const bool changed = jump_round(ctx, d, copt, cc, ws, par, grand, known);
    if (!pgas::allreduce_or(ctx, changed)) break;
    if (jumps >= cap)
      throw std::runtime_error(
          "jump_to_stars: labels still changing after " +
          std::to_string(cap) + " jumps (the label array holds a cycle)");
  }
}

}  // namespace pgraph::core

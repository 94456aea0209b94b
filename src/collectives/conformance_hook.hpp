#pragma once

#include <cstddef>
#include <cstdint>

#include "analysis/conformance.hpp"
#include "collectives/crcw.hpp"
#include "collectives/options.hpp"
#include "pgas/digest.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::coll {

#ifdef PGRAPH_CHECK_ACCESS

/// Argument signature of one collective call: every property that SPMD
/// conformance requires to agree across threads, folded into one word.
/// Per-thread batch *sizes* are deliberately absent — each thread brings
/// its own request list — but the batch-shape class (the virtual-block
/// decomposition all threads index each other's matrices with: resolved
/// t', option bits, offloaded element) is included, because a divergent
/// shape silently corrupts the SMatrix/PMatrix exchange.
inline std::uint64_t collective_sig(std::uint64_t array_uid,
                                    std::size_t array_size,
                                    std::size_t elem_bytes, int combine,
                                    int tprime, const CollectiveOptions& opt,
                                    std::uint64_t known_index = ~0ull) {
  using pgas::mix64;
  std::uint64_t h = mix64(array_uid + 1);
  h = mix64(h ^ static_cast<std::uint64_t>(array_size));
  h = mix64(h ^ static_cast<std::uint64_t>(elem_bytes));
  h = mix64(h ^ static_cast<std::uint64_t>(combine));
  h = mix64(h ^ static_cast<std::uint64_t>(tprime));
  const std::uint64_t bits =
      (opt.circular ? 1ull : 0ull) | (opt.localcpy ? 2ull : 0ull) |
      (opt.id ? 4ull : 0ull) | (opt.offload ? 16ull : 0ull) |
      (opt.hierarchical ? 32ull : 0ull);
  h = mix64(h ^ bits);
  h = mix64(h ^ known_index);
  return h;
}

constexpr analysis::CollOp crcw_coll_op(CrcwMode m) {
  switch (m) {
    case CrcwMode::Overwrite:
      return analysis::CollOp::SetD;
    case CrcwMode::Min:
      return analysis::CollOp::SetDMin;
    case CrcwMode::Add:
      return analysis::CollOp::SetDAdd;
  }
  return analysis::CollOp::SetD;
}

/// Register this thread's arrival at a collective call site with the
/// conformance verifier.  `tag` is the caller-supplied site label
/// (CollectiveOptions::site; nullptr = anonymous).  Call sites gate on
/// PGRAPH_CHECK_ACCESS so default builds pay nothing, not even the sig.
inline void conformance_note(pgas::ThreadCtx& ctx, analysis::CollOp op,
                             const char* tag, std::uint64_t sig) {
  auto& cv = analysis::ConformanceVerifier::instance();
  if (!cv.enabled()) return;
  cv.note_collective(ctx.id(), cv.site_id(op, tag), sig);
}

#endif  // PGRAPH_CHECK_ACCESS

}  // namespace pgraph::coll

#include "stream/cc_incremental.hpp"

#include <atomic>
#include <stdexcept>

#include "pgas/replica.hpp"

namespace pgraph::stream {

IncrementalResult cc_incremental(pgas::Runtime& rt,
                                 pgas::GlobalArray<std::uint64_t>& d,
                                 const std::vector<graph::Edge>& fresh,
                                 const core::CcOptions& opt) {
  rt.reset_costs();

  const int max_iters = opt.round_cap(core::default_round_cap(d.size()));
  coll::CollectiveContext cc(rt);
  std::atomic<int> iterations{0};

  rt.run([&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts_pass(ctx, "stream.maintain");

    // Pre-batch mirrors: a permanent loss mid-pass promotes these and the
    // caller rebuilds from the restored state (no-op without a loss plan).
    pgas::replicate_to_buddy(ctx);

    // Canonical labels are CC's fixed point, so cc_coalesced's round
    // applies unchanged, over the fresh edges only.
    core::CcRounds rounds(ctx, d, cc, fresh, opt);
    int it = 0;
    while (rounds.step()) {
      // Every thread reaches the cap on the same trip: a collective throw.
      if (++it >= max_iters)
        throw std::runtime_error("cc_incremental: exceeded iteration bound");
    }
    if (ctx.id() == 0) iterations.store(it + 1, std::memory_order_relaxed);
  });

  IncrementalResult r;
  r.iterations = iterations.load();
  r.costs = core::collect_costs(rt);
  return r;
}

}  // namespace pgraph::stream

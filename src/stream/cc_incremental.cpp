#include "stream/cc_incremental.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <stdexcept>

#include "pgas/replica.hpp"

namespace pgraph::stream {

IncrementalResult cc_incremental(pgas::Runtime& rt,
                                 pgas::GlobalArray<std::uint64_t>& d,
                                 const std::vector<graph::Edge>& fresh,
                                 const core::CcOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  rt.reset_costs();

  const std::size_t n = d.size();
  const int max_iters = opt.max_iters > 0
                            ? opt.max_iters
                            : 4 * (n < 2 ? 1 : std::bit_width(n)) + 64;
  coll::CollectiveContext cc(rt);

  std::atomic<int> iterations{0};
  std::atomic<bool> overran{false};

  rt.run([&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts_pass(ctx, "stream.maintain");

    // Pre-batch mirrors: a permanent loss mid-pass promotes these and the
    // caller rebuilds from the restored state (no-op without a loss plan).
    pgas::replicate_to_buddy(ctx);

    // Canonical labels are CC's fixed point, so cc_coalesced's round
    // applies unchanged, over the fresh edges only.
    core::CcRounds rounds(ctx, d, cc, fresh, opt);
    int it = 0;
    while (it < max_iters && rounds.step()) ++it;
    if (it == max_iters) overran.store(true, std::memory_order_relaxed);
    if (ctx.id() == 0) iterations.store(it + 1, std::memory_order_relaxed);
  });

  if (overran.load())
    throw std::runtime_error("cc_incremental: exceeded iteration bound");

  IncrementalResult r;
  r.iterations = iterations.load();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.costs = core::collect_costs(rt, wall);
  return r;
}

}  // namespace pgraph::stream

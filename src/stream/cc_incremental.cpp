#include "stream/cc_incremental.hpp"

#include "core/recovery.hpp"

namespace pgraph::stream {

IncrementalResult cc_incremental(pgas::Runtime& rt,
                                 pgas::GlobalArray<std::uint64_t>& d,
                                 const std::vector<graph::Edge>& fresh,
                                 const core::CcOptions& opt) {
  rt.reset_costs();

  coll::CollectiveContext cc(rt);
  // No scrubbing: DynamicGraph's rebuild adopts labels into `d` without
  // updating its checksums, so a scrub baseline would flag that as
  // corruption.
  core::RecoveryLoop loop(rt, {&d}, "cc_incremental",
                          opt.round_cap(core::default_round_cap(d.size())),
                          0);

  rt.run([&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts_pass(ctx, "stream.maintain");
    // Canonical labels are CC's fixed point, so cc_coalesced's round
    // applies unchanged, over the fresh edges only.
    core::CcRounds rounds(ctx, d, cc, fresh, opt);
    loop.run(ctx, rounds.state(), [&](int) { return rounds.step(); });
  });

  IncrementalResult r;
  r.iterations = loop.iterations();
  r.costs = core::collect_costs(rt);
  return r;
}

}  // namespace pgraph::stream

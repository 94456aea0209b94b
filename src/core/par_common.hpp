#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "collectives/options.hpp"
#include "machine/phase_stats.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// Round cap of the iterative kernels when the caller sets none: they
/// converge in O(log n) rounds, so exceeding this means they never will.
inline int default_round_cap(std::size_t n) {
  return 4 * (n < 2 ? 1 : std::bit_width(n)) + 64;
}

/// Options for the collective-based CC, SV and MST implementations.
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

  /// `max_iters`, or `auto_cap` when it is 0.
  int round_cap(int auto_cap) const {
    return max_iters > 0 ? max_iters : auto_cap;
  }

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

/// Cost/telemetry summary of one parallel run.
struct RunCosts {
  double modeled_ns = 0.0;  ///< BSP critical-path time from the cost model
  /// Host seconds of the run, from the runtime's last reset_costs().
  double wall_s = 0.0;
  machine::PhaseStats breakdown;  ///< per-category, critical thread
  std::uint64_t messages = 0;       ///< total network messages
  std::uint64_t fine_messages = 0;  ///< fine-grained (non-coalesced) subset
  std::uint64_t bytes = 0;
  std::uint64_t barriers = 0;

  double modeled_ms() const { return modeled_ns / 1e6; }
  /// Costs of a pipeline: the sum over its phases.
  RunCosts& operator+=(const RunCosts& c) {
    modeled_ns += c.modeled_ns;
    wall_s += c.wall_s;
    breakdown.merge_sum(c.breakdown);
    messages += c.messages;
    fine_messages += c.fine_messages;
    bytes += c.bytes;
    barriers += c.barriers;
    return *this;
  }
};

/// Result of a parallel connected-components run.
struct ParCCResult {
  std::vector<std::uint64_t> labels;
  std::uint64_t num_components = 0;
  int iterations = 0;
  RunCosts costs;
};

/// Result of a parallel MST run.
struct ParMstResult {
  std::vector<std::uint64_t> edges;  ///< edge ids of the spanning forest
  std::uint64_t total_weight = 0;
  int iterations = 0;
  RunCosts costs;
};

/// Snapshot the runtime's cost state into a RunCosts with an explicit
/// host time (call after rt.run(); pair with rt.reset_costs() before it).
inline RunCosts collect_costs(pgas::Runtime& rt, double wall_s) {
  RunCosts c;
  c.modeled_ns = rt.modeled_time_ns();
  c.wall_s = wall_s;
  c.breakdown = rt.critical_stats();
  c.messages = rt.net().total_messages();
  c.fine_messages = rt.net().fine_messages();
  c.bytes = rt.net().total_bytes();
  c.barriers = rt.barriers_executed();
  return c;
}

/// The same, with the host seconds since the last rt.reset_costs(): the
/// cost window every kernel entry point opens before its runs.
inline RunCosts collect_costs(pgas::Runtime& rt) {
  return collect_costs(rt, rt.cost_window_s());
}

}  // namespace pgraph::core

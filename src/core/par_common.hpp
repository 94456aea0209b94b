#pragma once

#include <cstdint>
#include <vector>

#include "machine/phase_stats.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// Cost/telemetry summary of one parallel run.
struct RunCosts {
  double modeled_ns = 0.0;  ///< BSP critical-path time from the cost model
  double wall_s = 0.0;      ///< real wall-clock of the simulation itself
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

/// Snapshot the runtime's cost state into a RunCosts (call after rt.run();
/// pair with rt.reset_costs() before the run).
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

}  // namespace pgraph::core

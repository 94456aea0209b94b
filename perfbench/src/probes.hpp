// Layer probes: short host-time measurements of single layers, each run at
// the calling workload's own topology, label-array size and request
// stream, so a probe number and that workload's op_cpu_ms describe the
// same program.
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"
#include "graph/types.hpp"
#include "pgas/runtime.hpp"

namespace perfbench {

/// Adds the pgas.*, sched.*, machine.exchange_sweep_us and coll.* metrics.
/// `pairs` is the workload's request stream: SPMD thread i requests the
/// endpoints of its even chunk of it, as the solvers' edge loops do.
void run_layer_probes(pgraph::pgas::Runtime& rt, std::size_t n,
                      const std::vector<pgraph::graph::Edge>& pairs,
                      Report& rep);

}  // namespace perfbench

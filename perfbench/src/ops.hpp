// The timed op wrapper both workload files share: process CPU and wall
// time of one op and, in a traced op, the spans and a SuperstepTracer
// around it.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common.hpp"
#include "pgas/runtime.hpp"
#include "spans.hpp"
#include "trace/tracer.hpp"

namespace perfbench {

/// What the timed ops of one run accumulate.
struct OpLog {
  std::vector<double> untraced_ms;      ///< host wall per op, tracing off
  std::vector<double> untraced_cpu_ms;  ///< process CPU per op, tracing off
  std::vector<double> traced_cpu_ms;    ///< process CPU per op, tracing on
  std::vector<double> barriers;         ///< runtime barriers per op
  /// Modeled time each barrier term won, over the traced ops.
  std::array<double, pgraph::pgas::kNumBarrierWinners> verdict_ns{};
};

/// Runs `body` as op `op` and logs its CPU and wall ms.  In a traced op the
/// benchmark spans are on (and off in an untraced one) and a fresh
/// SuperstepTracer is attached to `rt` around `body`.  An exception from
/// `body` propagates after tracing is taken down; the op is then not
/// logged.
template <class F>
void run_op(pgraph::pgas::Runtime& rt, int op, bool traced, OpLog& log,
            F&& body) {
  Spans& spans = Spans::get();
  const bool spans_were_on = spans.enabled();
  spans.set_enabled(traced);
  spans.set_op(op);
  std::optional<pgraph::trace::SuperstepTracer> tracer;
  const auto untrace = [&] {
    if (tracer) tracer->detach();
    spans.set_enabled(spans_were_on);
    spans.set_op(-1);
  };
  const std::uint64_t epoch0 = rt.epoch();
  const double cpu0 = process_cpu_ms();
  const auto t0 = Clock::now();
  try {
    Span root("bench.op");
    if (traced) {
      Span sp("trace.attach");
      tracer.emplace();
      tracer->attach(rt);
    }
    body();
    if (traced) {
      Span sp("trace.attribution");
      const auto& attr = tracer->total_attribution();
      for (std::size_t w = 0; w < log.verdict_ns.size(); ++w)
        log.verdict_ns[w] += attr.time_ns[w];
    }
  } catch (...) {
    untrace();
    throw;
  }
  const double ms = ms_between(t0, Clock::now());
  const double cpu_ms = process_cpu_ms() - cpu0;
  untrace();
  log.barriers.push_back(static_cast<double>(rt.epoch() - epoch0));
  if (traced) {
    log.traced_cpu_ms.push_back(cpu_ms);
  } else {
    log.untraced_ms.push_back(ms);
    log.untraced_cpu_ms.push_back(cpu_ms);
  }
}

/// Runs `body` with determinism digests on and returns the digest taken
/// at its last barrier.  Kept apart from the timed ops: hashing the
/// registered arrays at every barrier would dominate the tracing overhead.
template <class F>
std::uint64_t digest_of(pgraph::pgas::Runtime& rt, F&& body) {
  rt.set_digest_enabled(true);
  try {
    body();
  } catch (...) {
    rt.set_digest_enabled(false);
    throw;
  }
  rt.set_digest_enabled(false);
  return rt.last_state_digest();
}

/// Per-layer metrics every workload shares: barrier verdict shares,
/// barriers per op, tracing overhead and per-op self time of the layers
/// the ops call.
void add_op_log_metrics(Report& rep, const OpLog& log);

}  // namespace perfbench

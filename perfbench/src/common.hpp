// Shared plumbing of the repository benchmark: arguments, the result
// record every workload fills, timing and quantile helpers.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/cost_params.hpp"
#include "machine/phase_stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process so far, ms: every thread, exited ones
/// included.  Time a thread waits descheduled (neighbour load on a shared
/// host, hypervisor steal) is not counted, so this clock is far steadier
/// than wall time when the host is contended.
inline double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main: the verdict, the op counts
/// and the metrics of the requested kind (end-to-end, or per-layer when
/// tracing).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< thrown, wrong, shed or stale ops
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Mark the run incorrect and say why on stderr.
  void fail(const std::string& why);
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Cost preset of the paper's cluster with the modeled cache scaled to the
/// input, as the repository's figure benches do (working set / cache ~420).
inline pgraph::machine::CostParams params_for(std::uint64_t n_vertices) {
  pgraph::machine::CostParams p = pgraph::machine::CostParams::hps_cluster();
  const std::uint64_t scaled = n_vertices * 8 / 420;
  p.cache_bytes = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(scaled, 4096, 1u << 21));
  return p;
}

/// Prints the "digest:" context line run.py compares across runs.
void print_digest(std::uint64_t digest);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// End-to-end metrics every workload reports with tracing off.  Fields a
/// workload has no native notion of are defined per workload (README).
struct EndToEnd {
  std::vector<double> setup_s;       ///< process CPU s per repeated set-up
  std::vector<double> setup_wall_s;  ///< wall s of the same (printed only)
  std::vector<double> op_cpu_ms;     ///< process CPU ms per untraced op
  std::vector<double> op_wall_ms;    ///< wall ms of the same (printed only)
  double answers = 0.0;              ///< answers produced by those ops
  double modeled_ms = 0.0;
  double modeled_latency_p50_us = 0.0;
  double modeled_latency_p99_us = 0.0;
  double modeled_rps = 0.0;
};
void add_end_to_end(Report& rep, const EndToEnd& e);

/// core.modeled_<category>_ms from a solve's critical-thread PhaseStats.
void add_phase_metrics(Report& rep, const pgraph::machine::PhaseStats& ps);

/// Workload entry points.
Report run_static_solve(const Args& a, bool mst);
Report run_serve_mixed(const Args& a);

}  // namespace perfbench

#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "machine/exchange_sim.hpp"
#include "machine/network_model.hpp"
#include "machine/phase_stats.hpp"

namespace pgraph::pgas {

class ThreadCtx;

/// The four competing terms of the barrier max (see Runtime's class
/// comment and §5 of docs/MODEL.md):
///
///   T_new = max( max_i clock_i,                       -> Threads
///                T_last + drain_NIC,                  -> Nic
///                T_last + drain_BUS,                  -> Bus
///                max_i clock_i + exchange_duration )  -> Exchange
///          + barrier_cost
///
/// The runtime evaluates all four at every barrier — tracing on or off —
/// and labels the *winning* term, so each superstep carries a bottleneck
/// verdict: which resource the superstep could not end before.
struct BarrierVerdict {
  enum class Winner : std::uint8_t { Threads = 0, Nic, Bus, Exchange };

  double t_start = 0.0;      ///< T_last_barrier when the superstep began
  double t_threads = 0.0;    ///< max_i clock_i (slowest thread)
  double t_nic = 0.0;        ///< t_start + max-node fine-grained NIC drain
  double t_bus = 0.0;        ///< t_start + max-node DRAM bus drain
  double t_exchange = 0.0;   ///< t_threads + exchange sweep duration
  double exchange_ns = 0.0;  ///< the sweep duration itself (0 if none)
  double barrier_cost_ns = 0.0;
  double t_final = 0.0;      ///< the new aligned clock (includes barrier cost)
  Winner winner = Winner::Threads;
  bool had_exchange = false;

  /// Duration of the superstep this verdict closes.
  double duration_ns() const { return t_final - t_start; }
};

inline constexpr std::size_t kNumBarrierWinners = 4;

constexpr const char* winner_name(BarrierVerdict::Winner w) {
  switch (w) {
    case BarrierVerdict::Winner::Threads:
      return "threads";
    case BarrierVerdict::Winner::Nic:
      return "nic";
    case BarrierVerdict::Winner::Bus:
      return "bus";
    case BarrierVerdict::Winner::Exchange:
      return "exchange";
  }
  return "?";
}

/// Per-node resource occupancy of one superstep, as seen at its barrier.
struct NodeSuperstep {
  machine::NetworkModel::NicDrain nic;  ///< fine-grained NIC drain
  double bus_busy_ns = 0.0;             ///< DRAM bus traffic drained
  machine::ExchangeNodeStats exch;      ///< exchange-sweep occupancy
};

/// Everything the runtime knows about one superstep, handed to the trace
/// sink from the barrier completion step (single-threaded; all SPMD
/// threads parked).  Vectors are owned by the runtime and reused across
/// barriers — sinks must copy what they keep.
struct SuperstepRecord {
  std::uint64_t index = 0;  ///< barriers_executed() value closing this step
  std::uint64_t epoch = 0;  ///< access-checker epoch that just ended
  BarrierVerdict verdict;
  /// Per-thread clock at barrier arrival (before alignment to t_final).
  const std::vector<double>* arrival_clock = nullptr;
  /// Per-thread cumulative stats *after* this barrier's accounting (the
  /// sink diffs consecutive records to get per-superstep category time).
  const std::vector<machine::PhaseStats>* stats = nullptr;
  const std::vector<NodeSuperstep>* nodes = nullptr;
  /// NetworkModel counter deltas over this superstep.
  std::uint64_t msgs_delta = 0;
  std::uint64_t bytes_delta = 0;
  std::uint64_t fine_msgs_delta = 0;
  /// FaultInjector counter deltas over this superstep (all zero when no
  /// injector is attached): where resilience cost went.
  fault::FaultCounters fault_delta;
  /// Nodes still hosting threads after this superstep (== topology nodes
  /// until a shrink; each shrink decrements it — the degraded-epoch mark).
  int live_nodes = 0;
  /// Determinism digest of the committed GlobalArray state at this barrier
  /// (Runtime::set_digest_enabled; has_digest is false when the feature is
  /// off, and state_digest is then meaningless).
  bool has_digest = false;
  std::uint64_t state_digest = 0;
};

/// Interface the runtime reports into when tracing is enabled
/// (Runtime::set_trace_sink).  on_superstep is called from the barrier
/// completion step (exactly one thread, all others parked); on_scope and
/// on_crcw are called concurrently from SPMD threads, each always passing
/// its own thread id — per-thread sink state needs no locking.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_superstep(const SuperstepRecord& rec) = 0;
  /// The runtime this sink is attached to is being destroyed; the sink
  /// must drop any pointer to it.  Sinks commonly outlive runtimes (one
  /// tracer across many bench configurations), so this is how the
  /// attachment ends without an explicit detach.
  virtual void on_runtime_gone() noexcept {}
  /// The attached runtime's clocks and stats were reset to zero
  /// (Runtime::reset_costs) while the sink stays attached.  Sinks that
  /// baseline deltas against cumulative stats must re-baseline here, or
  /// the first superstep after the reset computes negative deltas.
  /// Called outside run() (no SPMD threads live).
  virtual void on_reset() noexcept {}
  /// A named modeled-time interval [t0_ns, t1_ns] on `thread`'s clock
  /// (collective phases: "getd.serve", "setd.apply", ...).
  virtual void on_scope(int thread, const char* name, double t0_ns,
                        double t1_ns) = 0;
  /// A CRCW combine-window boundary on `thread`'s clock (the access
  /// discipline's declared-benign windows; label is "crcw.min" or
  /// "crcw.overwrite").
  virtual void on_crcw(int thread, const char* label, double ts_ns,
                       bool begin) = 0;
};

/// RAII modeled-time annotation: records [now at construction, now at
/// destruction] on the calling thread's trace track.  Zero-cost (two
/// pointer reads, one branch) when no sink is attached.  `name` must
/// outlive the trace (string literals).
class TraceScope {
 public:
  TraceScope(ThreadCtx& ctx, const char* name);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  ThreadCtx* ctx_;
  const char* name_;
  double t0_ = 0.0;
};

}  // namespace pgraph::pgas

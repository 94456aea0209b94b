#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "pgas/runtime.hpp"
#include "pgas/trace_hook.hpp"

namespace pgraph::trace {

/// Bottleneck attribution over a set of supersteps: how many supersteps
/// (and how much modeled time) each of the four barrier terms won.
struct Attribution {
  std::uint64_t supersteps = 0;
  std::array<std::uint64_t, pgas::kNumBarrierWinners> count{};
  std::array<double, pgas::kNumBarrierWinners> time_ns{};

  void add(const pgas::BarrierVerdict& v) {
    ++supersteps;
    const auto w = static_cast<std::size_t>(v.winner);
    ++count[w];
    time_ns[w] += v.duration_ns();
  }

  double total_ns() const {
    double t = 0;
    for (const double v : time_ns) t += v;
    return t;
  }

  /// The term that owns the most modeled time (Threads when empty).
  pgas::BarrierVerdict::Winner dominant() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < time_ns.size(); ++i)
      if (time_ns[i] > time_ns[best]) best = i;
    return static_cast<pgas::BarrierVerdict::Winner>(best);
  }
};

/// One recorded superstep (all modeled times already shifted onto the
/// tracer's global axis, so records from consecutively attached runtimes
/// form one timeline).
struct Superstep {
  int segment = 0;            ///< which attach() this superstep belongs to
  std::uint64_t index = 0;    ///< runtime-local barrier index
  std::uint64_t epoch = 0;
  pgas::BarrierVerdict verdict;
  std::vector<double> arrival_clock;            ///< per thread, shifted
  std::vector<machine::PhaseStats> cat_delta;   ///< per thread, this step only
  std::vector<pgas::NodeSuperstep> nodes;
  std::uint64_t msgs_delta = 0;
  std::uint64_t bytes_delta = 0;
  std::uint64_t fine_msgs_delta = 0;
  std::uint64_t violations_delta = 0;  ///< access checker (check builds)
  // Fault-injection activity this superstep (all zero without an injector;
  // see docs/ROBUSTNESS.md).
  fault::FaultCounters fault_delta;
  int live_nodes = 0;  ///< surviving nodes after this superstep
  /// Determinism digest of the committed GlobalArray state at this barrier
  /// (Runtime::set_digest_enabled; has_digest false when the feature is off).
  bool has_digest = false;
  std::uint64_t state_digest = 0;
};

struct ScopeEvent {
  const char* name;  ///< string literal supplied at the annotation site
  int segment;
  int thread;
  double t0_ns;  ///< shifted
  double t1_ns;
};

struct CrcwEvent {
  const char* label;  ///< "crcw.min" / "crcw.overwrite"
  int segment;
  int thread;
  double ts_ns;  ///< shifted
  bool begin;
};

/// Host-side instant annotation on the modeled-time axis: named marks a
/// front end (the serving layer's breaker/brownout/recovery transitions)
/// drops onto its own track of the Chrome-trace export.  Unlike scopes,
/// these are not tied to an SPMD thread or a segment.
struct Annotation {
  std::string name;
  double ts_ns = 0.0;
};

/// One attached runtime = one segment of the trace timeline.
struct Segment {
  double offset_ns = 0.0;  ///< where this runtime's t=0 lands globally
  std::vector<std::int32_t> thread_node;
  int nodes = 0;
  std::string label;  ///< "<nodes>x<tpn> <preset>"
};

/// The superstep tracer: a pgas::TraceSink that records, per superstep,
/// every thread's per-category clock advance, the four competing barrier
/// terms with the winner labeled, and per-node NIC/bus/exchange occupancy
/// — plus modeled-time phase scopes and CRCW-window marks reported by the
/// collectives.  Feed it to Runtime::set_trace_sink via attach(); attach
/// several runtimes in sequence and their timelines concatenate.
///
/// Thread safety: on_scope/on_crcw append to per-thread buffers (each SPMD
/// thread passes its own id); on_superstep runs in the barrier completion
/// step.  Accessors and exporters must only be called while no attached
/// runtime is inside run().
class SuperstepTracer final : public pgas::TraceSink {
 public:
  SuperstepTracer();
  ~SuperstepTracer() override;

  /// Start recording `rt` (replacing any sink it had).  Times of the new
  /// runtime are shifted so its timeline starts where the previous
  /// attached runtime's ended.  Must be called outside run().
  void attach(pgas::Runtime& rt);
  /// Detach from the runtime attached last (safe to let the tracer die
  /// first otherwise the runtime would dangle).
  void detach();

  // --- TraceSink -------------------------------------------------------
  void on_superstep(const pgas::SuperstepRecord& rec) override;
  void on_scope(int thread, const char* name, double t0_ns,
                double t1_ns) override;
  void on_crcw(int thread, const char* label, double ts_ns,
               bool begin) override;
  void on_runtime_gone() noexcept override { attached_ = nullptr; }
  void on_reset() noexcept override;

  // --- recorded data ---------------------------------------------------
  const std::vector<Superstep>& supersteps() const { return steps_; }
  const std::vector<Segment>& segments() const { return segments_; }
  std::vector<ScopeEvent> all_scopes() const;
  std::vector<CrcwEvent> all_crcw() const;
  double end_ns() const { return end_ns_; }

  /// Record a host-side instant annotation (serving-mode transitions).
  /// `ts_ns` is on the caller's virtual clock, used verbatim.  Annotations
  /// are emitted as Chrome-trace instant events on a dedicated pseudo-
  /// process only when at least one exists, so traces without them are
  /// byte-identical to pre-annotation output.
  void note_instant(std::string name, double ts_ns);

  /// Attribution accumulated since the last take (bench rows call this
  /// once per configuration), and over the whole recording.  Durations
  /// are taken on each runtime's own clock, so a row's attribution does
  /// not depend on the rows recorded before it.
  Attribution take_row_attribution();
  const Attribution& total_attribution() const { return total_; }

  /// Per-superstep determinism digests recorded since the last take (bench
  /// rows call this once per configuration; empty when digests are off).
  /// Ordered by recording order, so two runs of the same configuration can
  /// be diffed element-by-element to find the first diverging superstep.
  std::vector<std::uint64_t> take_row_digests();

  // --- exporters -------------------------------------------------------
  /// Chrome/Perfetto trace-event JSON on the modeled-time axis: one track
  /// per UPC thread (per-category slices), one per thread for collective
  /// phase scopes, a per-segment verdict track, and per-node NIC/bus/
  /// exchange counter tracks.  `ts` is microseconds (trace-event format).
  void write_chrome_trace(std::ostream& os) const;
  /// Convenience file variant; returns false if the file cannot be opened.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  struct PerThread {
    std::vector<ScopeEvent> scopes;
    std::vector<CrcwEvent> crcw;
  };

  pgas::Runtime* attached_ = nullptr;
  int cur_segment_ = -1;
  double offset_ns_ = 0.0;
  double end_ns_ = 0.0;
  std::vector<machine::PhaseStats> prev_stats_;
  std::uint64_t prev_violations_ = 0;
  std::vector<std::unique_ptr<PerThread>> threads_;
  std::vector<Segment> segments_;
  std::vector<Superstep> steps_;
  std::vector<Annotation> notes_;
  Attribution row_;
  Attribution total_;
  std::size_t row_digest_start_ = 0;  ///< steps_ index of the last digest take
};

}  // namespace pgraph::trace

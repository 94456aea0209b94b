// Benchmark-side tracing: a span around every call the benchmark makes
// into a library layer.  Spans stay in memory and are written out when the
// run ends.  A span's layer is its name up to the first '.', so
// "core.cc_coalesced" belongs to `core`.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Spans {
 public:
  struct Rec {
    const char* name;  ///< string literal
    double t0_us;      ///< since the recorder was created
    double t1_us;
    int parent;        ///< index of the enclosing span, -1 for a root
    int op;            ///< op id, -1 outside the timed ops
  };

  static Spans& get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Op id stamped on spans opened from now on (-1: set-up, probes, oracle).
  void set_op(int op) { op_ = op; }

  int open(const char* name);
  void close(int idx);

  /// Durations (us) of the spans called `name` that belong to an op.
  std::vector<double> op_durations_us(const std::string& name) const;
  /// Self time (span minus its direct children), ms, summed per layer;
  /// `ops_only` keeps spans with an op id.
  std::map<std::string, double> self_ms_by_layer(bool ops_only) const;
  /// One line per span: id,parent,op,name,t0_us,t1_us.
  bool write_csv(const std::string& path) const;

 private:
  Spans();
  Clock::time_point origin_;
  bool enabled_ = false;
  int op_ = -1;
  std::vector<Rec> recs_;
  std::vector<int> stack_;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : idx_(Spans::get().enabled() ? Spans::get().open(name) : -1) {}
  ~Span() {
    if (idx_ >= 0) Spans::get().close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int idx_;
};

}  // namespace perfbench

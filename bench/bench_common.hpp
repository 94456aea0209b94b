#pragma once

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/par_common.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "harness/args.hpp"
#include "harness/table.hpp"
#include "machine/cost_params.hpp"
#include "partition/partitioning.hpp"
#include "pgas/runtime.hpp"
#include "trace/bench_json.hpp"
#include "trace/tracer.hpp"

namespace pgraph::bench {

using harness::BenchArgs;
using harness::Table;

/// The paper's cluster: 16 nodes x 16 CPUs.
inline constexpr int kPaperNodes = 16;

inline machine::CostParams params() {
  return machine::CostParams::hps_cluster();
}

/// Scale the modeled cache with the (scaled-down) input so the
/// working-set-to-cache ratio matches the paper's platform: 100M vertices
/// (800 MB of labels) against a ~1.9 MB L2 is a ratio of ~420.  Without
/// this, a laptop-scale n would fit in the modeled L2 and every cache
/// effect the paper measures would vanish.
inline machine::CostParams params_for(std::uint64_t n_vertices) {
  machine::CostParams p = machine::CostParams::hps_cluster();
  const std::uint64_t scaled = n_vertices * 8 / 420;
  p.cache_bytes = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(scaled, 4096, 1u << 21));
  return p;
}

inline machine::CostParams smp_params_for(std::uint64_t n_vertices) {
  machine::CostParams p = params_for(n_vertices);
  p.preset = "smp-node";
  return p;
}

/// The entry point of every bench: `main` returns bench_main(run, argc,
/// argv, ...).  An input the bench cannot satisfy (a generator or kernel
/// throwing std::invalid_argument, e.g. more unique edges than --n
/// vertices hold) ends the run the way a malformed flag does in
/// BenchArgs::parse: a message on stderr and exit status 2, not an abort.
template <class Run, class... Args>
int bench_main(Run run, Args... args) {
  try {
    return run(args...);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

inline void preamble(const BenchArgs& a, const std::string& figure,
                     const std::string& caption,
                     const std::string& expectation) {
  harness::banner(std::cout, figure + " — " + caption);
  std::cout << "cost preset: " << params().preset
            << "   (scale=" << a.scale << ", seed=" << a.seed << ")\n"
            << "paper expectation: " << expectation << "\n";
}

inline void emit(const BenchArgs& a, const Table& t) {
  if (a.csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);
  std::cout.flush();
}

/// Per-category breakdown cells (Fig. 5/6 stacked-bar data).
inline std::vector<std::string> breakdown_cells(
    const machine::PhaseStats& st) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < machine::kNumCats; ++i)
    out.push_back(Table::eng(st.get(static_cast<machine::Cat>(i))));
  return out;
}

inline std::string ratio(double num, double den) {
  return den > 0 ? Table::num(num / den, 2) + "x" : "-";
}

/// Install the --partition policy on a freshly constructed runtime.  No-op
/// without the flag, so default runs stay on the block fast path (and byte-
/// identical to the committed baselines).  The degree-aware scheme needs
/// the edge list whose degree histogram drives the cut; callers without one
/// pass nullptr and Partitioning::make falls back to block (the spec's
/// n_hint gating, see docs/PARTITIONING.md).
inline void apply_partition(pgas::Runtime& rt, const BenchArgs& a,
                            const graph::EdgeList* el = nullptr) {
  if (a.partition.empty()) return;
  partition::PartitionSpec spec;
  if (!partition::PartitionSpec::parse(a.partition, spec).empty())
    return;  // unreachable: the spelling was validated at arg-parse time
  if (spec.kind == partition::PartitionKind::Degree && el != nullptr)
    spec = spec.with_degrees(graph::degree_histogram(*el));
  rt.set_partition_spec(spec);
}

/// Machine-readable reporting for a bench run: collects one BenchRow per
/// configuration, and — when --trace or --json is given — attaches a
/// SuperstepTracer to every runtime so rows carry per-superstep bottleneck
/// attribution and the whole run exports a Perfetto trace.
///
/// Usage per bench:
///   Report rep(a, "fig05_opt_breakdown_random");
///   rep.set_param("n", n); ...
///   for each configuration { Runtime rt(...); rep.attach(rt); run;
///                            rep.row(label, costs, {{"speedup", x}}); }
///   return rep.finish();
class Report {
 public:
  using Extra = std::vector<std::pair<std::string, double>>;

  Report(const BenchArgs& a, std::string bench_name) : args_(a) {
    rep_.bench = std::move(bench_name);
    // --digest needs the tracer too: digests flow runtime -> superstep
    // records -> rows, even when neither --json nor --trace is given (the
    // run still validates determinism; finish() just writes no file).
    if (!args_.json_path.empty() || !args_.trace_path.empty() || args_.digest)
      tracer_ = std::make_unique<trace::SuperstepTracer>();
    if (!args_.faults.empty())
      injector_ = std::make_unique<fault::FaultInjector>(
          fault::FaultConfig::parse(args_.faults, args_.fault_seed));
  }

  bool enabled() const { return tracer_ != nullptr; }
  trace::SuperstepTracer* tracer() { return tracer_.get(); }
  fault::FaultInjector* injector() { return injector_.get(); }

  void set_param(const std::string& key, double v) { rep_.set_param(key, v); }

  /// Start recording `rt` (no-op without --json/--trace, so benches call
  /// this unconditionally after constructing each runtime).
  void attach(pgas::Runtime& rt) {
    if (rep_.preset.empty()) rep_.preset = rt.params().preset;
    if (injector_) {
      rt.set_fault_injector(injector_.get());
      // Attaching resets the injector's counters; re-baseline the per-row
      // delta origin or the first row after a re-attach would underflow.
      prev_faults_ = injector_->counters();
    }
    rt.set_digest_enabled(args_.digest);
    if (tracer_) tracer_->attach(rt);
  }

  void row(const std::string& label, const core::RunCosts& c,
           Extra extra = {}) {
    trace::BenchRow r;
    r.label = label;
    r.modeled_ns = c.modeled_ns;
    r.wall_ms = c.wall_s * 1e3;
    r.set_breakdown(c.breakdown);
    r.messages = c.messages;
    r.fine_messages = c.fine_messages;
    r.bytes = c.bytes;
    r.barriers = c.barriers;
    push(std::move(r), std::move(extra));
  }

  /// Row without a full RunCosts (benches that only track modeled time).
  void row(const std::string& label, double modeled_ns, Extra extra = {}) {
    trace::BenchRow r;
    r.label = label;
    r.modeled_ns = modeled_ns;
    push(std::move(r), std::move(extra));
  }

  /// Write the requested outputs; returns a main()-style exit code.
  int finish() {
    int rc = 0;
    if (tracer_) rep_.attribution = tracer_->total_attribution();
    if (!args_.json_path.empty()) {
      if (rep_.write_file(args_.json_path)) {
        std::cout << "bench json: " << args_.json_path << "\n";
      } else {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args_.json_path.c_str());
        rc = 1;
      }
    }
    if (!args_.trace_path.empty()) {
      if (tracer_->write_chrome_trace_file(args_.trace_path)) {
        std::cout << "trace: " << args_.trace_path
                  << " (load in Perfetto / chrome://tracing)\n";
      } else {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args_.trace_path.c_str());
        rc = 1;
      }
    }
    return rc;
  }

 private:
  /// Append `r` with its extras, fault deltas, attribution and digests.
  void push(trace::BenchRow r, Extra extra) {
    r.extra = std::move(extra);
    append_fault_extras(r.extra);
    if (tracer_) {
      r.attribution = tracer_->take_row_attribution();
      r.digests = tracer_->take_row_digests();
    }
    rep_.rows.push_back(std::move(r));
  }

  /// Fault counters of this row, as deltas against the previous row (the
  /// injector accumulates across the whole bench).  Rides in `extra`, so
  /// the JSON schema is unchanged and fault-free reports are unchanged.
  void append_fault_extras(Extra& extra) {
    if (!injector_) return;
    const fault::FaultCounters c = injector_->counters();
    const fault::FaultCounters d = c - prev_faults_;
    for (const fault::FaultCounterField& f : fault::kFaultCounterFields)
      extra.emplace_back(f.key, static_cast<double>(d.*f.member));
    prev_faults_ = c;
  }

  const BenchArgs args_;
  trace::BenchReport rep_;
  std::unique_ptr<trace::SuperstepTracer> tracer_;
  std::unique_ptr<fault::FaultInjector> injector_;
  fault::FaultCounters prev_faults_;
};

}  // namespace pgraph::bench

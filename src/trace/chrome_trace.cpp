#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <string>

#include "trace/json.hpp"

namespace pgraph::trace {

namespace {

constexpr double kNsPerUs = 1000.0;

/// Emits one trace event object per call, handling the comma separator.
class EventStream {
 public:
  explicit EventStream(std::ostream& os) : os_(os) {}

  std::ostream& begin() {
    if (!first_) os_ << ",\n";
    first_ = false;
    return os_;
  }

  /// Continue the event most recently started with begin().
  std::ostream& out() { return os_; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

void meta(EventStream& ev, int pid, int tid, const char* what,
          const std::string& name) {
  ev.begin() << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
             << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
             << json::escape(name) << "\"}}";
}

void slice(EventStream& ev, int pid, int tid, const char* name, double t0_ns,
           double dur_ns) {
  ev.begin() << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
             << ",\"name\":\"" << json::escape(name)
             << "\",\"ts\":" << json::number(t0_ns / kNsPerUs)
             << ",\"dur\":" << json::number(dur_ns / kNsPerUs) << "}";
}

void counter(EventStream& ev, int pid, const std::string& name, double ts_ns,
             double value) {
  ev.begin() << "{\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":0,\"name\":\""
             << json::escape(name)
             << "\",\"ts\":" << json::number(ts_ns / kNsPerUs)
             << ",\"args\":{\"value\":" << json::number(value) << "}}";
}

}  // namespace

void SuperstepTracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  EventStream ev(os);

  // --- metadata: processes (segments), threads, verdict tracks ---------
  for (std::size_t k = 0; k < segments_.size(); ++k) {
    const Segment& seg = segments_[k];
    const int pid = static_cast<int>(k);
    meta(ev, pid, 0, "process_name",
         "run" + std::to_string(k) + ": " + seg.label);
    ev.begin() << "{\"ph\":\"M\",\"pid\":" << pid
               << ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":"
               << pid << "}}";
    const int nthreads = static_cast<int>(seg.thread_node.size());
    for (int t = 0; t < nthreads; ++t) {
      const std::string node = std::to_string(seg.thread_node[t]);
      meta(ev, pid, cat_track_tid(t), "thread_name",
           "upc " + std::to_string(t) + " (node " + node + ")");
      meta(ev, pid, scope_track_tid(t), "thread_name",
           "upc " + std::to_string(t) + " phases");
    }
    meta(ev, pid, kVerdictTid, "thread_name", "superstep bottleneck");
  }

  // --- per-superstep events --------------------------------------------
  for (const Superstep& st : steps_) {
    const int pid = st.segment;
    const pgas::BarrierVerdict& v = st.verdict;
    const double dur = v.duration_ns();

    // Verdict slice with the four competing terms in args.
    ev.begin() << "{\"ph\":\"X\",\"pid\":" << pid
               << ",\"tid\":" << kVerdictTid << ",\"name\":\""
               << pgas::winner_name(v.winner)
               << "\",\"ts\":" << json::number(v.t_start / kNsPerUs)
               << ",\"dur\":" << json::number(dur / kNsPerUs)
               << ",\"args\":{\"t_threads_ns\":" << json::number(v.t_threads)
               << ",\"t_nic_ns\":" << json::number(v.t_nic)
               << ",\"t_bus_ns\":" << json::number(v.t_bus)
               << ",\"t_exchange_ns\":" << json::number(v.t_exchange)
               << ",\"exchange_ns\":" << json::number(v.exchange_ns)
               << ",\"barrier_cost_ns\":" << json::number(v.barrier_cost_ns)
               << ",\"msgs\":" << st.msgs_delta
               << ",\"bytes\":" << st.bytes_delta
               << ",\"fine_msgs\":" << st.fine_msgs_delta
               << ",\"violations\":" << st.violations_delta;
    // Fault-injection args only when the superstep saw any, so fault-free
    // traces stay byte-identical.  `fault_drops` counts outage drops too;
    // an ack-timeout wait alone (loss drops with no retry left) counts.
    const fault::FaultCounters& f = st.fault_delta;
    const std::uint64_t drops = f.drops + f.outage_drops;
    if (drops != 0 || f.retransmits != 0 || f.corruptions != 0 ||
        f.rollbacks != 0 || f.retry_wait_ns != 0)
      ev.out() << ",\"fault_drops\":" << drops
               << ",\"fault_retransmits\":" << f.retransmits
               << ",\"fault_corruptions\":" << f.corruptions
               << ",\"fault_rollbacks\":" << f.rollbacks
               << ",\"fault_wait_ns\":" << f.retry_wait_ns;
    // Degraded-epoch marks: only emitted once a loss touched the step, so
    // loss-free traces stay byte-identical.
    if (f.loss_drops != 0 || f.loss_events != 0)
      ev.out() << ",\"fault_loss_drops\":" << f.loss_drops
               << ",\"fault_shrinks\":" << f.loss_events
               << ",\"live_nodes\":" << st.live_nodes;
    // At-rest marks: where a flip landed and where a scrub caught or
    // healed it.  Scrub passes alone do not trigger them, so flip-free
    // traces stay byte-identical with scrubbing on or off.
    if (f.mem_flips != 0 || f.scrub_detected != 0 || f.scrub_heals != 0 ||
        f.scrub_events != 0)
      ev.out() << ",\"fault_mem_flips\":" << f.mem_flips
               << ",\"fault_scrub_detected\":" << f.scrub_detected
               << ",\"fault_scrub_heals\":" << f.scrub_heals
               << ",\"fault_scrub_events\":" << f.scrub_events;
    // Determinism digest: only when the run recorded one (--digest), so
    // digest-off traces stay byte-identical.
    if (st.has_digest) {
      char dig[20];
      std::snprintf(dig, sizeof dig, "%016llx",
                    static_cast<unsigned long long>(st.state_digest));
      ev.out() << ",\"digest\":\"" << dig << "\"";
    }
    ev.out() << "}}";

    // A shrink is a global topology event; mark it as an instant so it is
    // findable at a glance in the viewer (instants add no slice time, so
    // per-category totals still equal PhaseStats exactly).
    if (f.loss_events != 0)
      ev.begin() << "{\"ph\":\"i\",\"pid\":" << pid
                 << ",\"tid\":" << kVerdictTid
                 << ",\"name\":\"node-loss shrink (" << st.live_nodes
                 << " nodes live)\",\"ts\":"
                 << json::number(v.t_final / kNsPerUs) << ",\"s\":\"g\"}";

    // Per-thread category slices, back-to-back from the superstep start.
    for (std::size_t t = 0; t < st.cat_delta.size(); ++t) {
      double cursor = v.t_start;
      for (std::size_t c = 0; c < machine::kNumCats; ++c) {
        const double d = st.cat_delta[t].get(static_cast<machine::Cat>(c));
        if (d <= 0.0) continue;
        slice(ev, pid, cat_track_tid(static_cast<int>(t)),
              machine::kCatNames[c].data(), cursor, d);
        cursor += d;
      }
      const double stall = v.t_final - cursor;
      if (stall > 1e-9)
        slice(ev, pid, cat_track_tid(static_cast<int>(t)), "(stall)", cursor,
              stall);
    }

    // Per-node occupancy counters (fraction of the superstep).
    if (dur > 0.0) {
      for (std::size_t n = 0; n < st.nodes.size(); ++n) {
        const pgas::NodeSuperstep& ns = st.nodes[n];
        const std::string id = "node" + std::to_string(n);
        counter(ev, pid, id + " NIC util", v.t_start,
                ns.nic.congested_ns / dur);
        counter(ev, pid, id + " bus util", v.t_start, ns.bus_busy_ns / dur);
        counter(ev, pid, id + " exch util", v.t_start,
                (ns.exch.send_busy_ns + ns.exch.recv_busy_ns) / dur);
      }
      counter(ev, pid, "net msgs", v.t_start,
              static_cast<double>(st.msgs_delta));
      counter(ev, pid, "net bytes", v.t_start,
              static_cast<double>(st.bytes_delta));
    }
  }

  // Close the counter step functions at each segment's end.
  for (std::size_t k = 0; k < segments_.size(); ++k) {
    double seg_end = segments_[k].offset_ns;
    int nodes = 0;
    for (const Superstep& st : steps_)
      if (st.segment == static_cast<int>(k)) {
        seg_end = std::max(seg_end, st.verdict.t_final);
        nodes = static_cast<int>(st.nodes.size());
      }
    const int pid = static_cast<int>(k);
    for (int n = 0; n < nodes; ++n) {
      const std::string id = "node" + std::to_string(n);
      counter(ev, pid, id + " NIC util", seg_end, 0.0);
      counter(ev, pid, id + " bus util", seg_end, 0.0);
      counter(ev, pid, id + " exch util", seg_end, 0.0);
    }
  }

  // --- host-side annotations (serving-mode transitions) ----------------
  // Emitted on a dedicated pseudo-process only when any exist, so traces
  // from runs without annotations stay byte-identical.
  if (!notes_.empty()) {
    const int pid = static_cast<int>(segments_.size());
    meta(ev, pid, 0, "process_name", "serve (virtual clock)");
    meta(ev, pid, 0, "thread_name", "mode transitions");
    ev.begin() << "{\"ph\":\"M\",\"pid\":" << pid
               << ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":"
               << pid << "}}";
    for (const Annotation& an : notes_)
      ev.begin() << "{\"ph\":\"i\",\"pid\":" << pid << ",\"tid\":0,\"name\":\""
                 << json::escape(an.name)
                 << "\",\"ts\":" << json::number(an.ts_ns / kNsPerUs)
                 << ",\"s\":\"p\"}";
  }

  // --- phase scopes and CRCW marks -------------------------------------
  for (const auto& pt : threads_) {
    for (const ScopeEvent& sc : pt->scopes)
      slice(ev, sc.segment, scope_track_tid(sc.thread), sc.name, sc.t0_ns,
            sc.t1_ns - sc.t0_ns);
    for (const CrcwEvent& cw : pt->crcw)
      ev.begin() << "{\"ph\":\"i\",\"pid\":" << cw.segment
                 << ",\"tid\":" << scope_track_tid(cw.thread) << ",\"name\":\""
                 << json::escape(cw.label) << (cw.begin ? ".begin" : ".end")
                 << "\",\"ts\":" << json::number(cw.ts_ns / kNsPerUs)
                 << ",\"s\":\"t\"}";
  }

  os << "\n]}\n";
}

bool SuperstepTracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f);
  return static_cast<bool>(f);
}

}  // namespace pgraph::trace

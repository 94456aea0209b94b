#include "trace/tracer.hpp"

#include <algorithm>
#include <cassert>

#include "analysis/access_checker.hpp"

namespace pgraph::trace {

SuperstepTracer::SuperstepTracer() = default;

SuperstepTracer::~SuperstepTracer() { detach(); }

void SuperstepTracer::attach(pgas::Runtime& rt) {
  detach();
  attached_ = &rt;
  cur_segment_ = static_cast<int>(segments_.size());
  offset_ns_ = end_ns_;

  Segment seg;
  seg.offset_ns = offset_ns_;
  seg.thread_node = rt.topo().thread_node_map();
  seg.nodes = rt.topo().nodes;
  seg.label = std::to_string(rt.topo().nodes) + "x" +
              std::to_string(rt.topo().threads_per_node) + " " +
              rt.params().preset;
  segments_.push_back(std::move(seg));

  const std::size_t s = static_cast<std::size_t>(rt.topo().total_threads());
  // A runtime carries its threads' stats across run() calls; baseline the
  // deltas on whatever it has already accumulated.
  prev_stats_ = rt.saved_thread_stats();
  prev_stats_.resize(s);
  while (threads_.size() < s)
    threads_.push_back(std::make_unique<PerThread>());
#ifdef PGRAPH_CHECK_ACCESS
  prev_violations_ = analysis::AccessChecker::instance().violation_count();
#endif
  rt.set_trace_sink(this);
}

void SuperstepTracer::detach() {
  if (attached_ != nullptr) {
    attached_->set_trace_sink(nullptr);
    attached_ = nullptr;
  }
}

void SuperstepTracer::on_reset() noexcept {
  if (attached_ == nullptr || cur_segment_ < 0) return;
  // The runtime's clocks and cumulative stats just restarted at zero while
  // we stay attached (Runtime::reset_costs between bench rows / stream
  // batches).  Rebase the segment offset so post-reset events continue the
  // global timeline where it left off, and re-baseline the per-thread
  // stats so the next superstep's deltas start from zero, not from the
  // pre-reset cumulative values.
  offset_ns_ = end_ns_;
  for (auto& st : prev_stats_) st.reset();
}

void SuperstepTracer::on_superstep(const pgas::SuperstepRecord& rec) {
  assert(cur_segment_ >= 0);
  Superstep st;
  st.segment = cur_segment_;
  st.index = rec.index;
  st.epoch = rec.epoch;
  st.verdict = rec.verdict;
  st.verdict.t_start += offset_ns_;
  st.verdict.t_threads += offset_ns_;
  st.verdict.t_nic += offset_ns_;
  st.verdict.t_bus += offset_ns_;
  st.verdict.t_exchange += offset_ns_;
  st.verdict.t_final += offset_ns_;

  st.arrival_clock = *rec.arrival_clock;
  for (double& c : st.arrival_clock) c += offset_ns_;

  const std::vector<machine::PhaseStats>& cur = *rec.stats;
  st.cat_delta.resize(cur.size());
  for (std::size_t i = 0; i < cur.size(); ++i) {
    for (std::size_t c = 0; c < machine::kNumCats; ++c) {
      const auto cat = static_cast<machine::Cat>(c);
      st.cat_delta[i].add(cat, cur[i].get(cat) - prev_stats_[i].get(cat));
    }
  }
  prev_stats_ = cur;

  st.nodes = *rec.nodes;
  st.msgs_delta = rec.msgs_delta;
  st.bytes_delta = rec.bytes_delta;
  st.fine_msgs_delta = rec.fine_msgs_delta;
  st.fault_delta = rec.fault_delta;
  st.live_nodes = rec.live_nodes;
  st.has_digest = rec.has_digest;
  st.state_digest = rec.state_digest;
#ifdef PGRAPH_CHECK_ACCESS
  // Compose with the access checker: a traced run under the checker tags
  // each superstep with the violations it surfaced instead of the trace
  // losing them to an abort (tests run with abort_on_violation off).
  const std::uint64_t viol = analysis::AccessChecker::instance().violation_count();
  st.violations_delta = viol - prev_violations_;
  prev_violations_ = viol;
#endif

  end_ns_ = std::max(end_ns_, st.verdict.t_final);
  // Attribution sums durations on the runtime's own clock: shifted ends
  // round at wherever earlier segments ended, so a row's attribution
  // would depend on the rows before it.
  row_.add(rec.verdict);
  total_.add(rec.verdict);
  steps_.push_back(std::move(st));
}

void SuperstepTracer::on_scope(int thread, const char* name, double t0_ns,
                               double t1_ns) {
  PerThread& pt = *threads_[static_cast<std::size_t>(thread)];
  pt.scopes.push_back(
      {name, cur_segment_, thread, t0_ns + offset_ns_, t1_ns + offset_ns_});
}

void SuperstepTracer::on_crcw(int thread, const char* label, double ts_ns,
                              bool begin) {
  PerThread& pt = *threads_[static_cast<std::size_t>(thread)];
  pt.crcw.push_back({label, cur_segment_, thread, ts_ns + offset_ns_, begin});
}

void SuperstepTracer::note_instant(std::string name, double ts_ns) {
  notes_.push_back({std::move(name), ts_ns});
}

std::vector<ScopeEvent> SuperstepTracer::all_scopes() const {
  std::vector<ScopeEvent> out;
  for (const auto& pt : threads_)
    out.insert(out.end(), pt->scopes.begin(), pt->scopes.end());
  return out;
}

std::vector<CrcwEvent> SuperstepTracer::all_crcw() const {
  std::vector<CrcwEvent> out;
  for (const auto& pt : threads_)
    out.insert(out.end(), pt->crcw.begin(), pt->crcw.end());
  return out;
}

Attribution SuperstepTracer::take_row_attribution() {
  Attribution out = row_;
  row_ = Attribution{};
  return out;
}

std::vector<std::uint64_t> SuperstepTracer::take_row_digests() {
  std::vector<std::uint64_t> out;
  for (std::size_t i = row_digest_start_; i < steps_.size(); ++i)
    if (steps_[i].has_digest) out.push_back(steps_[i].state_digest);
  row_digest_start_ = steps_.size();
  return out;
}

}  // namespace pgraph::trace

// serve_mixed: an open-loop multi-tenant QueryServer over a DynamicGraph,
// with insert-only publish batches interleaved with the requests.  A
// session replays the same seeded request stream and update batches
// against a freshly built DynamicGraph in steps (a publish plus the offers
// up to the next publish; the last step also drains with finish()).  An op
// is one whole session: every session does the same work, so its CPU time
// varies only with the host, where a step's varies with which step it is.
#include <cstdio>
#include <iostream>
#include <memory>
#include <span>

#include "common.hpp"
#include "core/cc_seq.hpp"
#include "graph/generators.hpp"
#include "ops.hpp"
#include "probes.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "spans.hpp"
#include "stream/dynamic_graph.hpp"

namespace perfbench {

namespace {

namespace core = pgraph::core;
namespace graph = pgraph::graph;
namespace pgas = pgraph::pgas;
namespace serve = pgraph::serve;
namespace stream = pgraph::stream;

// srv01's topology and calibration: rate 2 requests per single-key flush
// cost F, coalescing window 8F.
constexpr std::size_t kN = 1u << 14;
constexpr int kNodes = 4;
constexpr int kTpn = 2;
constexpr int kTenants = 4;
constexpr std::size_t kRequests = 6000;
constexpr std::size_t kSteps = 12;  ///< publishes per session
constexpr std::size_t kOpsPerPublish = kN / 50;
constexpr int kSetups = 9;
constexpr int kQueryReps = 15;

struct Inputs {
  graph::TemporalStream ts;
  std::vector<serve::Request> reqs;
  double flush_ns = 0.0;     ///< F
  double horizon_ns = 0.0;
  std::vector<std::size_t> cut;  ///< step k offers reqs [cut[k], cut[k+1])
};

graph::TemporalStream generate_stream(std::uint64_t seed) {
  Span sp("graph.temporal_stream");
  graph::TemporalStreamParams tp;
  tp.base_edges = 4 * kN;  // insert-only (delete_frac = 0)
  return graph::temporal_stream(kN, kSteps * kOpsPerPublish, seed, tp);
}

std::unique_ptr<stream::DynamicGraph> build_graph(pgas::Runtime& rt,
                                                  const Inputs& in) {
  Span sp("stream.DynamicGraph");
  return std::make_unique<stream::DynamicGraph>(rt, in.ts.base);
}

/// Virtual time of the k-th publish: publishes split the horizon evenly.
double publish_at(const Inputs& in, std::size_t k) {
  return in.horizon_ns * static_cast<double>(k) / kSteps;
}

/// F, the request stream calibrated on it, and the step boundaries.
void generate_requests(Inputs& in, stream::DynamicGraph& dg,
                       std::uint64_t seed) {
  stream::QueryBatch probe;
  probe.same_component.push_back({0, kN - 1});
  {
    Span sp("stream.query");
    in.flush_ns = dg.query(probe).costs.modeled_ns;
  }
  serve::WorkloadParams wp;
  wp.sessions = kTenants;
  wp.rate_rps = 2e9 / in.flush_ns;
  wp.horizon_ns = static_cast<double>(kRequests) / wp.rate_rps * 1e9;
  wp.zipf_s = 1.0;
  wp.size_mix = 0.3;
  {
    Span sp("serve.generate_workload");
    in.reqs = serve::generate_workload(kN, seed, wp);
  }
  in.horizon_ns = wp.horizon_ns;
  in.cut.assign(kSteps + 1, in.reqs.size());
  std::size_t i = 0;
  for (std::size_t k = 0; k < kSteps; ++k) {
    const double t = publish_at(in, k);
    while (i < in.reqs.size() && in.reqs[i].arrive_ns < t) ++i;
    in.cut[k] = i;
  }
}

serve::ServerOptions server_options(double flush_ns, std::size_t verify) {
  serve::ServerOptions so;
  so.window_ns = 8.0 * flush_ns;
  so.max_batch = 512;
  so.max_queue = 1024;  // sized so that no request is shed
  so.cache = true;
  so.verify_every = verify;
  return so;
}

/// One session against `dg`, step by step.
class Session {
 public:
  Session(stream::DynamicGraph& dg, const Inputs& in, std::size_t verify)
      : in_(in), srv_(dg, kTenants, server_options(in.flush_ns, verify)) {}

  void step(std::size_t k) {
    {
      Span sp("serve.publish");
      batches_.push_back(srv_.publish(
          publish_at(in_, k),
          std::span<const graph::EdgeUpdate>(in_.ts.updates)
              .subspan(k * kOpsPerPublish, kOpsPerPublish)));
    }
    for (std::size_t i = in_.cut[k]; i < in_.cut[k + 1]; ++i) {
      Span sp("serve.offer");
      srv_.offer(in_.reqs[i]);
    }
    if (k + 1 == kSteps) {
      Span sp("serve.finish");
      stats_ = srv_.finish();
    }
  }

  const serve::ServeStats& stats() const { return stats_; }
  const std::vector<stream::BatchStats>& batches() const { return batches_; }
  const std::vector<serve::Outcome>& outcomes() const {
    return srv_.outcomes();
  }

 private:
  const Inputs& in_;
  serve::QueryServer srv_;
  std::vector<stream::BatchStats> batches_;
  serve::ServeStats stats_;
};

/// Modeled-clock values that must repeat bit for bit across sessions/runs.
std::string fingerprint(const serve::ServeStats& st) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "p50_ns=%.17g p99_ns=%.17g throughput_rps=%.17g service_ns=%.17g "
      "publish_ns=%.17g agg_ns=%.17g flushes=%llu keys_sent=%llu "
      "coalesced=%llu cache_hits=%llu",
      st.p50_ns, st.p99_ns, st.throughput_rps, st.service_ns, st.publish_ns,
      st.agg_ns, static_cast<unsigned long long>(st.flushes),
      static_cast<unsigned long long>(st.keys_sent),
      static_cast<unsigned long long>(st.coalesced),
      static_cast<unsigned long long>(st.cache_hits));
  return buf;
}

bool same_outcome(const serve::Outcome& a, const serve::Outcome& b) {
  return a.status == b.status && a.answer == b.answer && a.epoch == b.epoch;
}

/// Requests a session lost: not answered (shed, stale, pending), or
/// answered differently from the verified reference session.
std::uint64_t lost_requests(const Session& s,
                            const std::vector<serve::Outcome>& ref) {
  const auto& out = s.outcomes();
  std::uint64_t lost = out.size() < ref.size() ? ref.size() - out.size() : 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool answered = out[i].status == serve::Status::Ok ||
                          out[i].status == serve::Status::Degraded;
    if (!answered || i >= ref.size() || !same_outcome(out[i], ref[i])) ++lost;
  }
  return lost;
}

/// The oracle: one untimed session with every 5th flush cross-checked
/// against a direct DynamicGraph::query, conservation checked, and the
/// final labels checked against DSU over the materialized graph.
std::vector<serve::Outcome> reference_session(pgas::Runtime& rt,
                                              const Inputs& in, Report& rep,
                                              serve::ServeStats* st) {
  auto dg = build_graph(rt, in);
  Session s(*dg, in, /*verify=*/5);
  for (std::size_t k = 0; k < kSteps; ++k) s.step(k);
  *st = s.stats();
  if (st->verify_mismatches != 0)
    rep.fail(std::to_string(st->verify_mismatches) +
             " flushes differ from a direct DynamicGraph::query");
  if (st->offered != st->completed + st->shed + st->stale + st->degraded)
    rep.fail("reference session: offered != completed + shed + stale + "
             "degraded");
  if (st->offered != in.reqs.size())
    rep.fail("reference session: not every request was offered");
  std::vector<std::uint64_t> labels;
  dg->labels().read_all(labels);
  Span sp("core.cc_dsu");
  if (!core::same_partition(labels, core::cc_dsu(dg->materialize()).labels))
    rep.fail("final labels differ from DSU over the materialized graph");
  return s.outcomes();
}

void add_serving_metrics(Report& rep, const serve::ServeStats& st,
                         const std::vector<stream::BatchStats>& batches,
                         double query_us) {
  // Per publish, averaged over the session's batches.
  double ingest_ns = 0.0, maintain_ns = 0.0, publish_ns = 0.0, iters = 0.0;
  for (const stream::BatchStats& b : batches) {
    ingest_ns += b.ingest.modeled_ns;
    maintain_ns += b.maintain.modeled_ns;
    publish_ns += b.publish.modeled_ns;
    iters += b.iterations;
  }
  const auto nb =
      static_cast<double>(std::max<std::size_t>(1, batches.size()));
  rep.add("stream.ingest_modeled_us", ingest_ns / nb / 1e3, "us");
  rep.add("stream.maintain_modeled_us", maintain_ns / nb / 1e3, "us");
  rep.add("stream.publish_modeled_us", publish_ns / nb / 1e3, "us");
  rep.add("stream.incremental_iterations", iters / nb, "count");
  rep.add("stream.query_us", query_us, "us");

  const Spans& spans = Spans::get();
  const std::vector<double> offer_us = spans.op_durations_us("serve.offer");
  rep.add("serve.offer_us.p50", quantile(offer_us, 0.5), "us");
  rep.add("serve.offer_us.p99", quantile(offer_us, 0.99), "us");
  rep.add("serve.publish_ms",
          median(spans.op_durations_us("serve.publish")) / 1e3, "ms");
  rep.add("serve.finish_ms",
          median(spans.op_durations_us("serve.finish")) / 1e3, "ms");
  const auto offered = static_cast<double>(st.offered);
  rep.add("serve.flushes", static_cast<double>(st.flushes), "count");
  rep.add("serve.requests_per_flush",
          st.flushes ? offered / static_cast<double>(st.flushes) : 0.0,
          "count");
  rep.add("serve.keys_sent", static_cast<double>(st.keys_sent), "count");
  rep.add("serve.coalesced_frac",
          offered > 0 ? static_cast<double>(st.coalesced) / offered : 0.0,
          "ratio");
  rep.add("serve.cache_hit_rate", st.cache_hit_rate(), "ratio");
  rep.add("serve.cache_lookups",
          static_cast<double>(st.cache_hits + st.cache_misses), "count");
  rep.add("serve.shed", static_cast<double>(st.shed), "count");
  rep.add("serve.service_modeled_ms", st.service_ns / 1e6, "ms");
  rep.add("serve.publish_modeled_ms", st.publish_ns / 1e6, "ms");
  rep.add("serve.agg_modeled_ms", st.agg_ns / 1e6, "ms");
}

/// Host us of a direct DynamicGraph::query of one flush-sized batch made of
/// the first requests of the stream, on a freshly built graph.
double probe_query_us(pgas::Runtime& rt, const Inputs& in,
                      std::size_t batch) {
  auto dg = build_graph(rt, in);
  stream::QueryBatch q;
  for (std::size_t i = 0; i < std::min(batch, in.reqs.size()); ++i) {
    const serve::Request& r = in.reqs[i];
    if (r.kind == serve::QueryKind::SameComponent)
      q.same_component.push_back({r.u, r.v});
    else
      q.component_size.push_back(r.u);
  }
  std::vector<double> us;
  for (int r = 0; r < kQueryReps; ++r) {
    Span sp("stream.query");
    const auto t0 = Clock::now();
    dg->query(q);
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  return median(us);
}

}  // namespace

Report run_serve_mixed(const Args& a) {
  Report rep;
  EndToEnd e2e;
  // The update stream is the benchmark's input, made once and not part of
  // set-up.  The request stream is calibrated on the program's own flush
  // cost, so it is made anew in every set-up.
  Inputs in;
  const auto g0 = Clock::now();
  in.ts = generate_stream(a.seed);
  const double gen_ms = ms_between(g0, Clock::now());
  std::unique_ptr<pgas::Runtime> rt;
  for (int k = 0; k < kSetups; ++k) {
    rt.reset();
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    {
      Span sp("pgas.Runtime");
      rt = std::make_unique<pgas::Runtime>(
          pgas::Topology::cluster(kNodes, kTpn), params_for(kN));
    }
    auto dg = build_graph(*rt, in);
    generate_requests(in, *dg, a.seed);
    Session(*dg, in, 0).step(0);  // warm-up: one step of a session
    e2e.setup_s.push_back((process_cpu_ms() - cpu0) / 1e3);
    e2e.setup_wall_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  std::cout << "serving: n=" << kN << " base m=" << in.ts.base.m() << ", "
            << kNodes << " nodes x " << kTpn << " threads, " << kTenants
            << " tenants, " << in.reqs.size() << " requests and " << kSteps
            << " publishes of " << kOpsPerPublish
            << " inserts per session, F=" << in.flush_ns << " ns\n";

  serve::ServeStats ref_st;
  const std::vector<serve::Outcome> ref =
      reference_session(*rt, in, rep, &ref_st);
  const std::string ref_fp = fingerprint(ref_st);

  double query_us = 0.0;
  if (a.trace) {
    std::vector<graph::Edge> pairs;
    pairs.reserve(in.reqs.size());
    for (const serve::Request& r : in.reqs)
      pairs.push_back({r.u, r.kind == serve::QueryKind::SameComponent ? r.v
                                                                      : r.u});
    run_layer_probes(*rt, kN, pairs, rep);
    query_us = probe_query_us(
        *rt, in,
        ref_st.flushes ? ref_st.offered / ref_st.flushes : in.reqs.size());
  }

  OpLog log;
  std::string fp0;
  serve::ServeStats last;
  std::vector<stream::BatchStats> last_batches;
  double answers = 0.0;
  const auto start = Clock::now();
  for (int sess = 0; ms_between(start, Clock::now()) < a.seconds * 1e3;
       ++sess) {
    const bool traced = a.trace && sess % 2 == 1;
    rep.attempted += in.reqs.size();
    auto dg = build_graph(*rt, in);
    Session s(*dg, in, 0);
    try {
      run_op(*rt, sess, traced, log, [&] {
        for (std::size_t k = 0; k < kSteps; ++k) s.step(k);
      });
    } catch (const std::exception& ex) {
      rep.failed += in.reqs.size();
      std::cerr << "session " << sess << " threw: " << ex.what() << "\n";
      continue;
    }
    const serve::ServeStats& st = s.stats();
    if (st.offered != st.completed + st.shed + st.stale + st.degraded)
      rep.fail("offered != completed + shed + stale + degraded");
    const std::uint64_t lost = lost_requests(s, ref);
    if (lost > 0)
      std::cerr << "session " << sess << ": " << lost
                << " requests shed, stale or answered wrongly\n";
    rep.failed += lost;
    const std::string fp = fingerprint(st);
    if (fp0.empty()) fp0 = fp;
    if (fp != fp0)
      rep.fail("modeled-clock fingerprint changed at session " +
               std::to_string(sess) + ": " + fp + " vs " + fp0);
    if (!traced) answers += static_cast<double>(st.completed + st.degraded);
    last = st;
    last_batches = s.batches();
  }
  std::cout << "fingerprint: " << fp0 << "\n";
  if (fp0 != ref_fp)
    std::cout << "reference session (flush verification on): " << ref_fp
              << "\n";
  if (a.trace) {
    // Determinism digests of every step of two more sessions, outside the
    // timed ops.
    const auto digest = [&] {
      auto dg = build_graph(*rt, in);
      Session s(*dg, in, 0);
      std::uint64_t h = 0;
      for (std::size_t k = 0; k < kSteps; ++k)
        h = h * 1099511628211ull ^ digest_of(*rt, [&] { s.step(k); });
      return h;
    };
    const std::uint64_t d = digest();
    if (digest() != d) rep.fail("state digests differ between two sessions");
    print_digest(d);
  }

  if (!a.trace) {
    e2e.op_cpu_ms = log.untraced_cpu_ms;
    e2e.op_wall_ms = log.untraced_ms;
    e2e.answers = answers;
    e2e.modeled_ms = (last.service_ns + last.publish_ns) / 1e6;
    e2e.modeled_latency_p50_us = last.p50_ns / 1e3;
    e2e.modeled_latency_p99_us = last.p99_ns / 1e3;
    e2e.modeled_rps = last.throughput_rps;
    add_end_to_end(rep, e2e);
    return rep;
  }

  rep.add("graph.generate_ms", gen_ms, "ms");
  add_op_log_metrics(rep, log);
  // The core layer on this workload: the DynamicGraph's initial labeling
  // (one cc_coalesced solve of the base graph).
  auto dg = build_graph(*rt, in);
  const stream::BatchStats& init = dg->initial_build();
  rep.add("core.solve_ms", init.maintain.wall_s * 1e3, "ms");
  rep.add("core.iterations", init.iterations, "count");
  rep.add("core.messages", static_cast<double>(init.maintain.messages),
          "count");
  rep.add("core.fine_messages",
          static_cast<double>(init.maintain.fine_messages), "count");
  rep.add("core.bytes", static_cast<double>(init.maintain.bytes), "bytes");
  add_phase_metrics(rep, init.maintain.breakdown);
  add_serving_metrics(rep, last, last_batches, query_us);
  return rep;
}

}  // namespace perfbench

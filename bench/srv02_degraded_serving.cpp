// SRV-02: availability under injected faults, with and without the
// resilience layer (deadlines, retry budgets, circuit breakers, brownout
// degradation; see docs/SERVING.md "Degraded serving").
//
// Every row replays the same deadline-carrying workload against the same
// base graph; rows differ only in the fault plan and in whether
// ServerOptions::resilience is enabled ("raw" vs "res").  Fault plans are
// parsed with arm=0 and armed mid-service (after the single epoch publish,
// which models a maintenance window), so graph construction and the
// publish are clean and the fault window covers the serving tail.  The
// headline metric is on-time availability: the fraction of offered
// requests answered (Ok or Degraded) within their own deadline — late
// answers are SLO misses whether or not the server enforced the deadline —
// swept against fault intensity.
//
// Acceptance (exit 1 on failure):
//  - zero-fault invariance: with no plan, the resilience-on row produces
//    outcome-for-outcome identical results to the resilience-off row (the
//    layer costs nothing until a fault or an overload actually bites);
//  - availability(res) >= 0.95 on the default drop plan, and
//    availability(res) >= availability(raw) on every plan;
//  - the blackout plan trips at least one breaker, the loss plan triggers
//    at least one recovery republish, and no resilience-on row crashes;
//  - outcome conservation on every completed row:
//    offered == completed + shed + stale + degraded, with the shed split
//    (queue-full + breaker-open + deadline) summing to shed.
//
// The committed baseline lives at scripts/baselines/BENCH_srv02_degraded.json.
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "stream/dynamic_graph.hpp"

using namespace pgraph;
using namespace pgraph::bench;

namespace {

struct Plan {
  std::string label;
  std::string spec;  ///< FaultConfig::parse key list; empty = no faults
};

struct RowResult {
  std::string label;
  std::string plan;
  bool resilient = false;
  bool crashed = false;
  double availability = 0.0;
  serve::ServeStats st;
  std::vector<serve::Outcome> outcomes;
};

}  // namespace

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv, {.serve = true, .partition = true});
  const int nodes = a.nodes > 0 ? a.nodes : 4;
  const int threads = a.threads > 0 ? a.threads : 2;
  const std::uint64_t n = a.n ? a.n : a.scaled(2500);
  const std::uint64_t m = a.m ? a.m : 4 * n;
  const int sessions = a.sessions > 0 ? a.sessions : 6;
  const std::size_t requests = std::max<std::size_t>(60, a.scaled(450));
  preamble(a, "SRV-02",
           "degraded serving: availability vs fault intensity",
           "with deadlines, retry budgets, breakers and brownout the server "
           "keeps availability >= 95% under the default fault plan and "
           "never exceeds one epoch of staleness");

  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
  Report rep(a, "srv02_degraded_serving");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));
  rep.set_param("sessions", sessions);
  rep.set_param("requests", static_cast<double>(requests));

  // One base graph + one publish batch shared by every row.
  graph::TemporalStreamParams tp;
  tp.base_edges = m;
  const std::size_t ops_per_pub =
      std::max<std::size_t>(8, static_cast<std::size_t>(n) / 50);
  const auto ts = graph::temporal_stream(n, ops_per_pub, a.seed, tp);

  // Calibrate F = modeled ns of one single-key flush (srv01's yardstick).
  double flush_ns = 0.0;
  {
    pgas::Runtime rt(topo, params_for(n));
    apply_partition(rt, a, &ts.base);
    rep.attach(rt);
    stream::DynamicGraph dg(rt, ts.base);
    stream::QueryBatch probe;
    probe.same_component.push_back({0, n - 1});
    flush_ns = dg.query(probe).costs.modeled_ns;
  }
  std::cout << "calibrated single-key flush: " << Table::eng(flush_ns)
            << " (rates/window/deadline are multiples of it)\n";

  const double rate_rps =
      a.arrival_rate > 0.0 ? a.arrival_rate : 3e9 / flush_ns;
  const double window_ns =
      a.batch_window_ns >= 0.0 ? a.batch_window_ns : 6.0 * flush_ns;
  const double deadline_ns =
      a.deadline_ns > 0.0 ? a.deadline_ns : 100.0 * flush_ns;
  const double retry_budget = a.retry_budget >= 0.0 ? a.retry_budget : 4.0;
  const bool brownout = a.brownout != 0;

  // The sweep: no faults, the default drop intensity, a straggler storm,
  // rolling outages, a permanent node loss, and a near-blackout that
  // exhausts the runtime's retransmit ladder almost every flush.
  const std::vector<Plan> plans = {
      {"none", ""},
      {"drop", "drop=0.12,retries=3,arm=0"},
      {"straggle", "straggle=0.3,straggle_ns=80000,arm=0"},
      {"outage", "outage_every=6,outage_k=2,arm=0"},
      {"loss", "loss_at=1,loss_node=2,arm=0"},
      {"blackout", "drop=0.45,retries=1,arm=0"},
  };

  serve::WorkloadParams wp;
  wp.sessions = sessions;
  wp.rate_rps = rate_rps;
  wp.horizon_ns = static_cast<double>(requests) / rate_rps * 1e9;
  wp.zipf_s = a.skew >= 0.0 ? a.skew : 0.9;
  wp.size_mix = 0.5;
  wp.phase_ns = wp.horizon_ns / 6.0;
  wp.burst_on_frac = 0.6;

  Table t({"config", "offered", "ok", "degraded", "shed", "stale", "avail%",
           "trips", "recov", "crashed"});
  int rc = 0;
  std::vector<RowResult> rows;

  const auto run_row = [&](const Plan& plan, bool resilient) {
    // Both rows carry the same per-request deadlines (sampling is
    // stateless, so arrivals and keys are identical either way); only the
    // resilient row *enforces* them.  The raw row still gets scored
    // against them, so availability compares like with like.
    serve::WorkloadParams w = wp;
    w.deadline_ns = deadline_ns;
    const auto reqs = serve::generate_workload(n, a.seed, w);

    pgas::Runtime rt(topo, params_for(n));
    apply_partition(rt, a, &ts.base);
    rep.attach(rt);
    fault::FaultInjector inj(plan.spec.empty()
                                 ? fault::FaultConfig{}
                                 : fault::FaultConfig::parse(plan.spec,
                                                             a.fault_seed));
    if (!plan.spec.empty()) rt.set_fault_injector(&inj);
    stream::DynamicGraph dg(rt, ts.base);

    serve::ServerOptions so;
    so.window_ns = window_ns;
    so.max_batch = 512;
    so.max_queue = 64;
    so.cache = true;
    so.resilience.enabled = resilient;
    so.resilience.retry_tokens = retry_budget;
    so.resilience.brownout = brownout;
    // Queue-pressure brownout is sized above the zero-fault operating
    // point (sessions x max_queue bounds the backlog), so it engages only
    // when faults inflate service times — keeping the zero-fault res row
    // outcome-identical to the raw row.
    so.resilience.brownout_high =
        static_cast<std::size_t>(sessions) * so.max_queue + 16;
    so.resilience.brownout_low = so.resilience.brownout_high / 4;
    serve::QueryServer srv(dg, sessions, so);

    // One publish at 40% of the horizon (disarmed: a maintenance window),
    // then the fault plan arms and the tail of the workload serves through
    // it.  The publish also seeds the previous-epoch cache entries the
    // brownout path degrades to.
    const double publish_at = 0.4 * wp.horizon_ns;
    const double arm_at = 0.5 * wp.horizon_ns;
    RowResult r;
    r.label = plan.label + (resilient ? " res" : " raw");
    r.plan = plan.label;
    r.resilient = resilient;
    try {
      bool published = false;
      bool armed = false;
      for (const serve::Request& q : reqs) {
        if (!published && q.arrive_ns >= publish_at) {
          srv.publish(publish_at, ts.updates);
          published = true;
        }
        if (!armed && q.arrive_ns >= arm_at) {
          inj.set_armed(true);
          armed = true;
        }
        srv.offer(q);
      }
      r.st = srv.finish();
    } catch (const fault::FaultError&) {
      // The pre-resilience server tears down on the first escaped fault;
      // everything not yet answered counts against availability.
      r.crashed = true;
      r.st = srv.stats();
    }
    // Availability is ON-TIME availability: a request counts only if it
    // was answered (Ok or Degraded) within its own deadline.  The raw row
    // does not enforce deadlines, but late answers are SLO misses all the
    // same — crediting them would let "serve everything, arbitrarily
    // late" beat honest shedding.
    r.outcomes = srv.outcomes();
    std::size_t on_time = 0;
    for (std::size_t i = 0; i < r.outcomes.size() && i < reqs.size(); ++i) {
      const serve::Outcome& o = r.outcomes[i];
      const bool answered = o.status == serve::Status::Ok ||
                            o.status == serve::Status::Degraded;
      if (answered && o.done_ns <= o.arrive_ns + reqs[i].deadline_ns)
        ++on_time;
    }
    r.availability = reqs.empty() ? 1.0
                                  : static_cast<double>(on_time) /
                                        static_cast<double>(reqs.size());

    // Surface the mode/breaker transitions on the Chrome trace (dedicated
    // pseudo-process; see SuperstepTracer::note_instant).
    if (rep.tracer() != nullptr)
      for (const serve::ServeEvent& e : r.st.events)
        rep.tracer()->note_instant(
            std::string("serve.") + serve::serve_event_name(e.kind) +
                (e.tenant >= 0 ? " t" + std::to_string(e.tenant) : ""),
            e.t_ns);

    const serve::ServeStats& st = r.st;
    rep.row(r.label, st.service_ns + st.publish_ns,
            {{"offered", static_cast<double>(st.offered)},
             {"completed", static_cast<double>(st.completed)},
             {"degraded", static_cast<double>(st.degraded)},
             {"shed", static_cast<double>(st.shed)},
             {"stale", static_cast<double>(st.stale)},
             {"shed_queue_full", static_cast<double>(st.shed_queue_full)},
             {"shed_breaker_open",
              static_cast<double>(st.shed_breaker_open)},
             {"shed_deadline", static_cast<double>(st.shed_deadline)},
             {"availability", r.availability},
             {"crashed", r.crashed ? 1.0 : 0.0},
             {"flush_failures", static_cast<double>(st.flush_failures)},
             {"flush_retries", static_cast<double>(st.flush_retries)},
             {"retry_denied", static_cast<double>(st.retry_denied)},
             {"breaker_trips", static_cast<double>(st.breaker_trips)},
             {"breaker_half_opens",
              static_cast<double>(st.breaker_half_opens)},
             {"breaker_closes", static_cast<double>(st.breaker_closes)},
             {"brownout_enters", static_cast<double>(st.brownout_enters)},
             {"brownout_exits", static_cast<double>(st.brownout_exits)},
             {"deadline_misses", static_cast<double>(st.deadline_misses)},
             {"recoveries", static_cast<double>(st.recoveries)},
             {"service_ns", st.service_ns},
             {"failed_ns", st.failed_ns},
             {"recovery_ns", st.recovery_ns},
             {"latency_p50_ns", st.p50_ns},
             {"latency_p99_ns", st.p99_ns}});
    t.add_row({r.label, std::to_string(st.offered),
               std::to_string(st.completed), std::to_string(st.degraded),
               std::to_string(st.shed), std::to_string(st.stale),
               Table::num(100.0 * r.availability, 1),
               std::to_string(st.breaker_trips),
               std::to_string(st.recoveries), r.crashed ? "yes" : "no"});

    // Row-local conservation (completed rows only: a crashed raw row's
    // tail never retires).
    if (!r.crashed) {
      if (st.offered != st.completed + st.shed + st.stale + st.degraded) {
        std::fprintf(stderr,
                     "srv02: SELF-CHECK FAILED at %s: offered %llu != "
                     "completed %llu + shed %llu + stale %llu + degraded "
                     "%llu\n",
                     r.label.c_str(),
                     static_cast<unsigned long long>(st.offered),
                     static_cast<unsigned long long>(st.completed),
                     static_cast<unsigned long long>(st.shed),
                     static_cast<unsigned long long>(st.stale),
                     static_cast<unsigned long long>(st.degraded));
        rc = 1;
      }
      if (st.shed !=
          st.shed_queue_full + st.shed_breaker_open + st.shed_deadline) {
        std::fprintf(stderr,
                     "srv02: SELF-CHECK FAILED at %s: shed %llu != "
                     "queue-full %llu + breaker-open %llu + deadline %llu\n",
                     r.label.c_str(),
                     static_cast<unsigned long long>(st.shed),
                     static_cast<unsigned long long>(st.shed_queue_full),
                     static_cast<unsigned long long>(st.shed_breaker_open),
                     static_cast<unsigned long long>(st.shed_deadline));
        rc = 1;
      }
    }
    rows.push_back(std::move(r));
  };

  for (const Plan& plan : plans) {
    run_row(plan, /*resilient=*/false);
    run_row(plan, /*resilient=*/true);
  }

  // Sweep-level acceptance.
  const auto find_row = [&](const std::string& plan,
                            bool resilient) -> const RowResult* {
    for (const RowResult& r : rows)
      if (r.plan == plan && r.resilient == resilient) return &r;
    return nullptr;
  };

  // 1) Zero-fault invariance: the resilience layer is pay-for-what-you-use.
  {
    const RowResult* raw = find_row("none", false);
    const RowResult* res = find_row("none", true);
    if (raw != nullptr && res != nullptr) {
      bool same = !raw->crashed && !res->crashed &&
                  raw->outcomes.size() == res->outcomes.size();
      for (std::size_t i = 0; same && i < raw->outcomes.size(); ++i) {
        const serve::Outcome& x = raw->outcomes[i];
        const serve::Outcome& y = res->outcomes[i];
        same = x.status == y.status && x.answer == y.answer &&
               x.epoch == y.epoch && x.arrive_ns == y.arrive_ns &&
               x.start_ns == y.start_ns && x.done_ns == y.done_ns;
      }
      if (!same || raw->st.service_ns != res->st.service_ns) {
        std::fprintf(stderr,
                     "srv02: SELF-CHECK FAILED: zero-fault resilience-on "
                     "row diverged from the resilience-off row\n");
        rc = 1;
      }
    }
  }
  // 2) Availability floors.
  for (const Plan& plan : plans) {
    const RowResult* raw = find_row(plan.label, false);
    const RowResult* res = find_row(plan.label, true);
    if (raw == nullptr || res == nullptr) continue;
    if (res->availability + 1e-12 < raw->availability) {
      std::fprintf(stderr,
                   "srv02: SELF-CHECK FAILED at %s: resilience lowered "
                   "availability (%.4f < %.4f)\n",
                   plan.label.c_str(), res->availability, raw->availability);
      rc = 1;
    }
  }
  if (const RowResult* res = find_row("drop", true);
      res != nullptr && res->availability < 0.95) {
    std::fprintf(stderr,
                 "srv02: SELF-CHECK FAILED: availability %.4f < 0.95 under "
                 "the default drop plan with resilience on\n",
                 res->availability);
    rc = 1;
  }
  // 3) The machinery actually engaged where it should.
  if (const RowResult* res = find_row("blackout", true);
      res != nullptr && res->st.breaker_trips == 0) {
    std::fprintf(stderr,
                 "srv02: SELF-CHECK FAILED: the blackout plan tripped no "
                 "breaker\n");
    rc = 1;
  }
  if (const RowResult* res = find_row("loss", true);
      res != nullptr && res->st.recoveries == 0) {
    std::fprintf(stderr,
                 "srv02: SELF-CHECK FAILED: the loss plan triggered no "
                 "recovery republish\n");
    rc = 1;
  }
  for (const RowResult& r : rows) {
    if (r.resilient && r.crashed) {
      std::fprintf(stderr,
                   "srv02: SELF-CHECK FAILED at %s: a resilience-on row "
                   "crashed\n",
                   r.label.c_str());
      rc = 1;
    }
  }

  emit(a, t);
  std::cout << "(graph: n=" << n << " base m=" << m << ", " << nodes
            << " nodes x " << threads << " threads, " << sessions
            << " sessions, ~" << requests << " requests per row; deadline "
            << Table::eng(deadline_ns) << ", retry budget "
            << Table::num(retry_budget, 0) << ", brownout "
            << (brownout ? "on" : "off") << ")\n";
  const int json_rc = rep.finish();
  return rc != 0 ? rc : json_rc;
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

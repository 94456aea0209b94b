// SRV-01: multi-tenant query serving over DynamicGraph epoch snapshots.
//
// An open-loop workload (Poisson arrivals with bursty on/off phases, Zipf
// hot-key skew, per-tenant rates; see src/serve/workload.hpp) drives the
// QueryServer's discrete-event loop on the modeled clock, sweeping arrival
// rate x skew x batch window x query mix.  The arrival rates are
// self-calibrated against the modeled cost of one single-key flush (F):
// "x1" offers 2 requests per F, "x2" offers 4 — both past what per-request
// flushing can serve, which is exactly where coalescing pays.
//
// Acceptance (exit 1 on failure):
//  - batching leverage: at a fixed rate/skew, the nonzero window sustains
//    strictly higher throughput AND lower p99 than window=0;
//  - the epoch cache absorbs hot keys under skew (hit rate > 0) and drops
//    entries when publishes evict their epoch (invalidation events > 0);
//  - sampled flushes are bit-identical to direct DynamicGraph::query
//    (verify_mismatches == 0 on every row);
//  - pinned sessions outlive the ring somewhere in the sweep (stale > 0).
//
// Rows land in the schema-v1 JSON with latency_p50/p95/p99 extras; the
// committed baseline lives at scripts/baselines/BENCH_serve_smoke.json.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "stream/dynamic_graph.hpp"

using namespace pgraph;
using namespace pgraph::bench;

namespace {

struct RowResult {
  std::string label;
  double window_ns = 0.0;
  serve::ServeStats st;
};

}  // namespace

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv, {.serve = true, .partition = true});
  const int nodes = a.nodes > 0 ? a.nodes : 4;
  const int threads = a.threads > 0 ? a.threads : 2;
  const std::uint64_t n = a.n ? a.n : a.scaled(3000);
  const std::uint64_t m = a.m ? a.m : 4 * n;
  const int sessions = a.sessions > 0 ? a.sessions : 6;
  const std::size_t requests =
      std::max<std::size_t>(80, a.scaled(700));
  preamble(a, "SRV-01",
           "multi-tenant query serving: admission, coalescing, epoch cache",
           "a nonzero batch window sustains higher throughput and lower "
           "p99 than per-request flushing at the same arrival rate; the "
           "epoch cache absorbs hot-key skew");

  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
  Report rep(a, "srv01_query_serving");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));
  rep.set_param("sessions", sessions);
  rep.set_param("requests", static_cast<double>(requests));

  // One base graph + update stream shared by every configuration: rows
  // differ only in serving policy, never in data.
  graph::TemporalStreamParams tp;
  tp.base_edges = m;
  const std::size_t kPublishes = 3;
  const std::size_t ops_per_pub =
      std::max<std::size_t>(8, static_cast<std::size_t>(n) / 50);
  const auto ts =
      graph::temporal_stream(n, kPublishes * ops_per_pub, a.seed, tp);

  // Calibrate F = modeled ns of one single-key flush, the service-time
  // yardstick the arrival rates and window are expressed in.
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
            << " (rates/window are multiples of it)\n";

  std::vector<std::pair<std::string, double>> rates;
  if (a.arrival_rate > 0.0)
    rates.push_back({"cli", a.arrival_rate});
  else {
    rates.push_back({"x1", 2e9 / flush_ns});
    rates.push_back({"x2", 4e9 / flush_ns});
  }
  std::vector<double> skews =
      a.skew >= 0.0 ? std::vector<double>{a.skew}
                    : std::vector<double>{0.0, 1.2};
  std::vector<std::pair<std::string, double>> windows;
  if (a.batch_window_ns >= 0.0)
    windows.push_back({"cli", a.batch_window_ns});
  else {
    windows.push_back({"0", 0.0});
    windows.push_back({"8F", 8.0 * flush_ns});
  }

  Table t({"config", "offered", "ok", "shed", "stale", "tput rps", "p50",
           "p99", "hit%", "flushes"});
  int rc = 0;
  std::vector<RowResult> rows;

  const auto run_config = [&](const std::string& label, double rate_rps,
                              double skew, double window_ns,
                              double size_mix) {
    serve::WorkloadParams wp;
    wp.sessions = sessions;
    wp.rate_rps = rate_rps;
    wp.horizon_ns =
        static_cast<double>(requests) / rate_rps * 1e9;
    wp.zipf_s = skew;
    wp.size_mix = size_mix;
    wp.phase_ns = wp.horizon_ns / 6.0;  // bursty on/off phases
    wp.burst_on_frac = 0.6;
    wp.pin_frac = 0.05;   // sessions holding a consistent read snapshot
    wp.pinned_epoch = 0;  // evicted once two more epochs publish
    const auto reqs = serve::generate_workload(n, a.seed, wp);

    pgas::Runtime rt(topo, params_for(n));
    apply_partition(rt, a, &ts.base);
    rep.attach(rt);
    stream::DynamicGraph dg(rt, ts.base);
    serve::ServerOptions so;
    so.window_ns = window_ns;
    so.max_batch = 512;
    so.max_queue = 64;
    so.cache = true;
    so.verify_every = 5;  // sampled bit-identity cross-check
    serve::QueryServer srv(dg, sessions, so);

    // Publishes land at fixed fractions of the horizon, interleaved with
    // arrivals in virtual-time order.
    std::size_t pi = 0;
    const auto maybe_publish = [&](double before_ns) {
      while (pi < kPublishes &&
             0.3 * wp.horizon_ns * static_cast<double>(pi + 1) <=
                 before_ns) {
        srv.publish(0.3 * wp.horizon_ns * static_cast<double>(pi + 1),
                    std::span<const graph::EdgeUpdate>(ts.updates)
                        .subspan(pi * ops_per_pub, ops_per_pub));
        ++pi;
      }
    };
    for (const serve::Request& r : reqs) {
      maybe_publish(r.arrive_ns);
      srv.offer(r);
    }
    maybe_publish(wp.horizon_ns + 1.0);
    const serve::ServeStats st = srv.finish();

    rep.row(label, st.makespan_ns,
            {{"offered", static_cast<double>(st.offered)},
             {"completed", static_cast<double>(st.completed)},
             {"shed", static_cast<double>(st.shed)},
             {"stale", static_cast<double>(st.stale)},
             {"throughput_rps", st.throughput_rps},
             {"latency_p50_ns", st.p50_ns},
             {"latency_p95_ns", st.p95_ns},
             {"latency_p99_ns", st.p99_ns},
             {"latency_mean_ns", st.mean_ns},
             {"queue_mean_ns", st.mean_queue_ns},
             {"flushes", static_cast<double>(st.flushes)},
             {"epoch_batches", static_cast<double>(st.epoch_batches)},
             {"keys_sent", static_cast<double>(st.keys_sent)},
             {"coalesced", static_cast<double>(st.coalesced)},
             {"cache_hits", static_cast<double>(st.cache_hits)},
             {"cache_misses", static_cast<double>(st.cache_misses)},
             {"cache_hit_rate", st.cache_hit_rate()},
             {"cache_invalidated", static_cast<double>(st.cache_invalidated)},
             {"invalidation_events",
              static_cast<double>(st.invalidation_events)},
             {"publishes", static_cast<double>(st.publishes)},
             {"service_ns", st.service_ns},
             {"publish_ns", st.publish_ns},
             {"agg_ns", st.agg_ns},
             {"verify_mismatches",
              static_cast<double>(st.verify_mismatches)}});
    t.add_row({label, std::to_string(st.offered),
               std::to_string(st.completed), std::to_string(st.shed),
               std::to_string(st.stale), Table::num(st.throughput_rps, 0),
               Table::eng(st.p50_ns), Table::eng(st.p99_ns),
               Table::num(100.0 * st.cache_hit_rate(), 1),
               std::to_string(st.flushes)});

    // Row-local invariants.  Every offered request retires with exactly one
    // outcome, and every shed carries exactly one reason code.
    if (st.offered != st.completed + st.shed + st.stale + st.degraded) {
      std::fprintf(stderr,
                   "srv01: SELF-CHECK FAILED at %s: offered %llu != "
                   "completed %llu + shed %llu + stale %llu + degraded "
                   "%llu\n",
                   label.c_str(),
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
                   "srv01: SELF-CHECK FAILED at %s: shed %llu != queue-full "
                   "%llu + breaker-open %llu + deadline %llu\n",
                   label.c_str(), static_cast<unsigned long long>(st.shed),
                   static_cast<unsigned long long>(st.shed_queue_full),
                   static_cast<unsigned long long>(st.shed_breaker_open),
                   static_cast<unsigned long long>(st.shed_deadline));
      rc = 1;
    }
    if (st.verify_mismatches != 0) {
      std::fprintf(stderr,
                   "srv01: SELF-CHECK FAILED at %s: %llu flush answers "
                   "diverged from direct DynamicGraph::query\n",
                   label.c_str(),
                   static_cast<unsigned long long>(st.verify_mismatches));
      rc = 1;
    }
    rows.push_back({label, window_ns, st});
  };

  for (const auto& [rl, rate] : rates)
    for (const double skew : skews)
      for (const auto& [wl, win] : windows)
        run_config("rate=" + rl + " skew=" + Table::num(skew, 1) +
                       " win=" + wl + " mix=0.5",
                   rate, skew, win, 0.5);
  // Pure query mixes at the heaviest skew / widest window: mix=1 exercises
  // the lazy size aggregation (agg_ns > 0 on its first epoch touch).
  for (const double mix : {0.0, 1.0})
    run_config("rate=" + rates.front().first +
                   " skew=" + Table::num(skews.back(), 1) +
                   " win=" + windows.back().first +
                   " mix=" + Table::num(mix, 1),
               rates.front().second, skews.back(), windows.back().second,
               mix);

  // Sweep-level acceptance: batching leverage and cache behavior.
  if (windows.size() == 2) {
    for (const auto& [rl, rate] : rates) {
      (void)rate;
      for (const double skew : skews) {
        const std::string base = "rate=" + rl +
                                 " skew=" + Table::num(skew, 1) + " win=";
        const serve::ServeStats *w0 = nullptr, *w1 = nullptr;
        for (const RowResult& r : rows) {
          if (r.label == base + windows[0].first + " mix=0.5") w0 = &r.st;
          if (r.label == base + windows[1].first + " mix=0.5") w1 = &r.st;
        }
        if (!w0 || !w1) continue;
        if (w1->throughput_rps <= w0->throughput_rps) {
          std::fprintf(stderr,
                       "srv01: SELF-CHECK FAILED at %s: windowed "
                       "throughput %.3g rps <= per-request %.3g rps\n",
                       base.c_str(), w1->throughput_rps,
                       w0->throughput_rps);
          rc = 1;
        }
        if (w1->p99_ns >= w0->p99_ns) {
          std::fprintf(stderr,
                       "srv01: SELF-CHECK FAILED at %s: windowed p99 "
                       "%.3g ns >= per-request p99 %.3g ns\n",
                       base.c_str(), w1->p99_ns, w0->p99_ns);
          rc = 1;
        }
      }
    }
  }
  std::uint64_t total_stale = 0;
  for (const RowResult& r : rows) {
    total_stale += r.st.stale;
    if (r.st.invalidation_events == 0 && r.st.publishes > 0 &&
        r.st.cache_misses > 0) {
      std::fprintf(stderr,
                   "srv01: SELF-CHECK FAILED at %s: publishes evicted "
                   "epochs but no cache invalidation was recorded\n",
                   r.label.c_str());
      rc = 1;
    }
  }
  for (const RowResult& r : rows) {
    const bool skewed = r.label.find("skew=1.2") != std::string::npos ||
                        (a.skew > 0.0);
    if (skewed && r.st.cache_hits == 0) {
      std::fprintf(stderr,
                   "srv01: SELF-CHECK FAILED at %s: hot-key skew produced "
                   "no cache hits\n",
                   r.label.c_str());
      rc = 1;
    }
  }
  if (total_stale == 0) {
    std::fprintf(stderr,
                 "srv01: SELF-CHECK FAILED: no pinned session ever "
                 "outlived the epoch ring (stale == 0 across the sweep)\n");
    rc = 1;
  }

  emit(a, t);
  std::cout << "(graph: n=" << n << " base m=" << m << ", " << nodes
            << " nodes x " << threads << " threads, " << sessions
            << " sessions, ~" << requests << " requests per row)\n";
  const int json_rc = rep.finish();
  return rc != 0 ? rc : json_rc;
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }

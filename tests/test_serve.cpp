// Multi-tenant serving layer: deterministic open-loop workload generation
// (Poisson / bursty / Zipf), the QueryServer's admission control, batch
// coalescing, per-epoch result cache, stale-epoch handling, SLO accounting,
// and bit-identical serving under fault injection (the ServeChaos test runs
// under the chaos stage's PGRAPH_CHAOS_SEED sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "core/cc_seq.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "machine/cost_params.hpp"
#include "pgas/runtime.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "stream/dynamic_graph.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;
namespace flt = pgraph::fault;
namespace strm = pgraph::stream;
namespace srv = pgraph::serve;

namespace {

std::uint64_t chaos_seed() {
  const char* s = std::getenv("PGRAPH_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1;
}

pg::Runtime make_rt(int nodes = 4, int threads = 2) {
  return pg::Runtime(pg::Topology::cluster(nodes, threads),
                     m::CostParams::hps_cluster());
}

srv::Request req(double at, std::int32_t tenant, srv::QueryKind kind,
                 g::VertexId u, g::VertexId v = 0,
                 std::uint64_t epoch = strm::QueryBatch::kLatest) {
  srv::Request r;
  r.arrive_ns = at;
  r.tenant = tenant;
  r.kind = kind;
  r.u = u;
  r.v = v;
  r.epoch = epoch;
  return r;
}

/// The server's ledger agrees with itself: the per-tenant counters sum to
/// the aggregates, and counting outcomes() by status (sheds by reason)
/// reproduces the aggregate counters.
void expect_ledger_consistent(const srv::QueryServer& s,
                              const srv::ServeStats& st) {
  srv::TenantStats sum;
  for (const srv::TenantStats& t : st.tenants) {
    sum.offered += t.offered;
    sum.completed += t.completed;
    sum.shed += t.shed;
    sum.stale += t.stale;
    sum.degraded += t.degraded;
  }
  EXPECT_EQ(sum.offered, st.offered);
  EXPECT_EQ(sum.completed, st.completed);
  EXPECT_EQ(sum.shed, st.shed);
  EXPECT_EQ(sum.stale, st.stale);
  EXPECT_EQ(sum.degraded, st.degraded);

  std::map<srv::Status, std::uint64_t> by_status;
  std::map<srv::ShedReason, std::uint64_t> by_reason;
  for (const srv::Outcome& o : s.outcomes()) {
    ++by_status[o.status];
    if (o.status == srv::Status::Shed) ++by_reason[o.shed_reason];
  }
  EXPECT_EQ(by_status[srv::Status::Pending], 0u);
  EXPECT_EQ(by_status[srv::Status::Ok], st.completed);
  EXPECT_EQ(by_status[srv::Status::Degraded], st.degraded);
  EXPECT_EQ(by_status[srv::Status::StaleEpoch], st.stale);
  EXPECT_EQ(by_reason[srv::ShedReason::None], 0u);
  EXPECT_EQ(by_reason[srv::ShedReason::QueueFull], st.shed_queue_full);
  EXPECT_EQ(by_reason[srv::ShedReason::BreakerOpen], st.shed_breaker_open);
  EXPECT_EQ(by_reason[srv::ShedReason::DeadlineExpired], st.shed_deadline);
}

/// Tiny fixed graph: component {1,2,3}, component {10,11}, singletons.
g::EdgeList tiny_graph() {
  g::EdgeList el;
  el.n = 100;
  el.edges = {{1, 2}, {2, 3}, {10, 11}};
  return el;
}

}  // namespace

// ---------------------------------------------------------------- workload

TEST(ServeWorkload, DeterministicSortedAndBounded) {
  srv::WorkloadParams p;
  p.sessions = 3;
  p.rate_rps = 5e6;
  p.horizon_ns = 2e4;
  p.size_mix = 0.4;
  const auto a = srv::generate_workload(500, 42, p);
  const auto b = srv::generate_workload(500, 42, p);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrive_ns, b[i].arrive_ns) << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
    EXPECT_EQ(a[i].u, b[i].u) << i;
    EXPECT_EQ(a[i].v, b[i].v) << i;
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind)) << i;
  }
  double prev = -1.0;
  bool all_latest = true;
  for (const auto& r : a) {
    EXPECT_GE(r.arrive_ns, prev);
    prev = r.arrive_ns;
    EXPECT_GE(r.tenant, 0);
    EXPECT_LT(r.tenant, p.sessions);
    EXPECT_LT(r.arrive_ns, p.horizon_ns);
    EXPECT_LT(r.u, 500u);
    all_latest &= r.epoch == strm::QueryBatch::kLatest;
  }
  EXPECT_TRUE(all_latest) << "pin_frac = 0 must never pin";
  // A different seed produces a different sequence.
  const auto c = srv::generate_workload(500, 43, p);
  ASSERT_FALSE(c.empty());
  bool same = a.size() == c.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = a[i].arrive_ns == c[i].arrive_ns && a[i].u == c[i].u;
  EXPECT_FALSE(same);
}

TEST(ServeWorkload, ZipfSkewConcentratesHotKeys) {
  srv::WorkloadParams p;
  p.sessions = 2;
  p.rate_rps = 5e6;
  p.horizon_ns = 2e5;  // ~1000 requests
  const auto uniform = srv::generate_workload(400, 7, p);
  p.zipf_s = 1.4;
  const auto skewed = srv::generate_workload(400, 7, p);
  const auto top_freq = [](const std::vector<srv::Request>& v) {
    std::map<g::VertexId, std::size_t> cnt;
    for (const auto& r : v) ++cnt[r.u];
    std::size_t best = 0;
    for (const auto& [k, c] : cnt) best = std::max(best, c);
    return static_cast<double>(best) / static_cast<double>(v.size());
  };
  ASSERT_GT(uniform.size(), 200u);
  ASSERT_GT(skewed.size(), 200u);
  // The hottest key under s=1.4 must absorb several times the mass of the
  // hottest key under the uniform draw.
  EXPECT_GT(top_freq(skewed), 3.0 * top_freq(uniform));
}

TEST(ServeWorkload, BurstPhasesRespectOnWindows) {
  srv::WorkloadParams p;
  p.sessions = 2;
  p.rate_rps = 2e6;
  p.horizon_ns = 1e5;
  p.phase_ns = 1e4;
  p.burst_on_frac = 0.5;
  const auto v = srv::generate_workload(100, 3, p);
  ASSERT_FALSE(v.empty());
  const double on_len = p.phase_ns * p.burst_on_frac;
  for (const auto& r : v)
    EXPECT_LT(std::fmod(r.arrive_ns, p.phase_ns), on_len);
  // Average rate is preserved within a factor ~2 (it's a random process).
  const double expect_n = p.rate_rps * p.horizon_ns / 1e9;
  EXPECT_GT(static_cast<double>(v.size()), 0.5 * expect_n);
  EXPECT_LT(static_cast<double>(v.size()), 2.0 * expect_n);
}

TEST(ServeWorkload, ValidatesParams) {
  srv::WorkloadParams p;
  p.sessions = 0;
  EXPECT_THROW(srv::generate_workload(10, 1, p), std::invalid_argument);
  p.sessions = 1;
  p.rate_rps = 0.0;
  EXPECT_THROW(srv::generate_workload(10, 1, p), std::invalid_argument);
  p.rate_rps = 1e6;
  p.burst_on_frac = 0.0;
  EXPECT_THROW(srv::generate_workload(10, 1, p), std::invalid_argument);
  p.burst_on_frac = 1.0;
  p.size_mix = 1.5;
  EXPECT_THROW(srv::generate_workload(10, 1, p), std::invalid_argument);
  p.size_mix = 0.5;
  EXPECT_THROW(srv::generate_workload(0, 1, p), std::invalid_argument);
  EXPECT_THROW(srv::ZipfSampler(10, -1.0), std::invalid_argument);
}

// ------------------------------------------------------------------ server

TEST(ServeServer, AnswersMatchGroundTruth) {
  const auto el = g::random_graph(150, 200, 19);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, el);
  const auto truth = core::cc_dsu(el);
  std::vector<std::uint64_t> size_of(el.n, 0);
  for (const auto lbl : truth.labels) ++size_of[lbl];

  srv::WorkloadParams wp;
  wp.sessions = 3;
  wp.rate_rps = 1e6;
  wp.horizon_ns = 1e5;  // ~100 requests
  wp.zipf_s = 0.9;
  const auto reqs = srv::generate_workload(el.n, 11, wp);
  ASSERT_GT(reqs.size(), 30u);

  srv::ServerOptions so;
  so.window_ns = 5e3;
  so.max_queue = 100000;  // no shedding: correctness test
  so.verify_every = 1;    // cross-check every flush against the runtime
  srv::QueryServer s(dg, wp.sessions, so);
  for (const auto& r : reqs) s.offer(r);
  const srv::ServeStats st = s.finish();

  EXPECT_EQ(st.offered, reqs.size());
  EXPECT_EQ(st.completed, reqs.size());
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.stale, 0u);
  EXPECT_EQ(st.verify_mismatches, 0u);
  EXPECT_GT(st.flushes, 0u);
  EXPECT_LT(st.flushes, st.offered);  // windows actually coalesce
  EXPECT_GT(st.p99_ns, 0.0);
  EXPECT_GE(st.p99_ns, st.p50_ns);
  ASSERT_EQ(s.outcomes().size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& r = reqs[i];
    const auto& o = s.outcomes()[i];
    ASSERT_EQ(o.status, srv::Status::Ok) << i;
    EXPECT_EQ(o.epoch, 0u);
    EXPECT_GE(o.start_ns, o.arrive_ns) << i;
    EXPECT_GE(o.done_ns, o.start_ns) << i;
    if (r.kind == srv::QueryKind::SameComponent)
      EXPECT_EQ(o.answer != 0, truth.labels[r.u] == truth.labels[r.v]) << i;
    else
      EXPECT_EQ(o.answer, size_of[truth.labels[r.u]]) << i;
  }
}

TEST(ServeServer, CoalescingDedupsAndCachesAcrossWindows) {
  pg::Runtime rt = make_rt(2, 2);
  strm::DynamicGraph dg(rt, tiny_graph());
  srv::ServerOptions so;
  so.window_ns = 1e6;
  so.max_batch = 64;
  srv::QueryServer s(dg, 3, so);

  // Three tenants ask the identical question inside one window: one key
  // goes to GetD, two ride along (coalesced).
  s.offer(req(0.0, 0, srv::QueryKind::SameComponent, 1, 3));
  s.offer(req(10.0, 1, srv::QueryKind::SameComponent, 1, 3));
  s.offer(req(20.0, 2, srv::QueryKind::SameComponent, 3, 1));  // normalized
  // A second window (opens after the first closes) repeats the key: served
  // from the epoch cache without touching the runtime.
  s.offer(req(3e6, 0, srv::QueryKind::SameComponent, 1, 3));
  const srv::ServeStats st = s.finish();

  EXPECT_EQ(st.offered, 4u);
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.flushes, 2u);
  EXPECT_EQ(st.epoch_batches, 1u);  // second window was fully cached
  EXPECT_EQ(st.keys_sent, 1u);
  EXPECT_EQ(st.coalesced, 2u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_GT(st.cache_hit_rate(), 0.0);
  for (const auto& o : s.outcomes()) {
    EXPECT_EQ(o.status, srv::Status::Ok);
    EXPECT_EQ(o.answer, 1u);  // 1 and 3 are connected via 2
  }
  // The fully-cached flush consumed no modeled service time.
  EXPECT_EQ(s.outcomes()[3].start_ns, s.outcomes()[3].done_ns);
}

TEST(ServeServer, AdmissionShedsOverload) {
  pg::Runtime rt = make_rt(2, 2);
  strm::DynamicGraph dg(rt, tiny_graph());
  srv::ServerOptions so;
  so.window_ns = 1e9;  // nothing flushes while offers arrive
  so.max_queue = 2;
  srv::QueryServer s(dg, 2, so);

  for (int i = 0; i < 5; ++i)
    s.offer(req(static_cast<double>(i), 0, srv::QueryKind::ComponentSize, 1));
  // The other tenant has its own bound and is unaffected.
  s.offer(req(2.0, 1, srv::QueryKind::ComponentSize, 10));
  const srv::ServeStats st = s.finish();

  EXPECT_EQ(st.offered, 6u);
  EXPECT_EQ(st.shed, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.shed_queue_full, 3u);
  EXPECT_EQ(st.tenants[0].shed, 3u);
  EXPECT_EQ(st.tenants[1].shed, 0u);
  expect_ledger_consistent(s, st);
  EXPECT_EQ(s.outcomes()[0].status, srv::Status::Ok);
  EXPECT_EQ(s.outcomes()[1].status, srv::Status::Ok);
  for (std::size_t i = 2; i < 5; ++i)
    EXPECT_EQ(s.outcomes()[i].status, srv::Status::Shed) << i;
  // Shed requests complete instantly (rejected, not queued).
  EXPECT_EQ(s.outcomes()[2].latency_ns(), 0.0);
  // Size answers still correct for the admitted ones.
  EXPECT_EQ(s.outcomes()[0].answer, 3u);   // {1,2,3}
  EXPECT_EQ(s.outcomes()[5].answer, 2u);   // {10,11}
}

TEST(ServeServer, StaleEpochServedCleanlyAndCacheDropped) {
  pg::Runtime rt = make_rt(2, 2);
  strm::DynamicGraph dg(rt, tiny_graph());
  srv::ServerOptions so;
  so.window_ns = 50.0;
  srv::QueryServer s(dg, 2, so);

  // Warm the epoch-0 cache with a pinned request while epoch 0 is live.
  s.offer(req(0.0, 0, srv::QueryKind::SameComponent, 1, 2, 0));
  // Publish twice: the ring (kEpochRing = 2) evicts epoch 0.
  const std::vector<g::EdgeUpdate> u1 = {{20, 21, 1, g::UpdateKind::Insert}};
  const std::vector<g::EdgeUpdate> u2 = {{22, 23, 2, g::UpdateKind::Insert}};
  s.publish(1e6, u1);
  EXPECT_EQ(s.stats().invalidation_events, 0u);  // epoch 0 still in ring
  s.publish(2e6, u2);
  EXPECT_EQ(s.stats().invalidation_events, 1u);
  EXPECT_GT(s.stats().cache_invalidated, 0u);

  // A session still pinned to epoch 0 gets a clean stale-epoch outcome —
  // never a std::out_of_range escaping the server.
  std::size_t idx = 0;
  EXPECT_NO_THROW(
      idx = s.offer(req(3e6, 1, srv::QueryKind::SameComponent, 1, 2, 0)));
  // A kLatest request in the same window is unaffected.
  s.offer(req(3e6 + 1.0, 0, srv::QueryKind::SameComponent, 1, 2));
  const srv::ServeStats st = s.finish();

  EXPECT_EQ(st.stale, 1u);
  EXPECT_EQ(st.tenants[1].stale, 1u);
  EXPECT_EQ(s.outcomes()[idx].status, srv::Status::StaleEpoch);
  EXPECT_EQ(s.outcomes()[idx].epoch, 0u);
  EXPECT_EQ(s.outcomes().back().status, srv::Status::Ok);
  EXPECT_EQ(s.outcomes().back().answer, 1u);
  EXPECT_EQ(s.outcomes().back().epoch, 2u);
  EXPECT_EQ(st.offered, st.completed + st.shed + st.stale + st.degraded);
}

// ------------------------------------------------------------------- chaos

TEST(ServeChaos, CoalescedFlushBitIdenticalUnderDrops) {
  // Satellite: a chaos run with message drops (and the resulting checksum
  // retransmits + retry waits) during coalesced flushes must serve answers
  // bit-identical to the clean run, with the retry latency surfacing in
  // the tail percentiles.
  const auto el = g::random_graph(120, 170, 29);
  const std::vector<g::EdgeUpdate> pub = {
      {0, 60, 1, g::UpdateKind::Insert}, {1, 61, 2, g::UpdateKind::Insert}};

  srv::WorkloadParams wp;
  wp.sessions = 2;
  wp.rate_rps = 4e5;
  wp.horizon_ns = 1e5;  // ~40 requests
  wp.zipf_s = 0.8;
  const auto reqs = srv::generate_workload(el.n, 13, wp);
  ASSERT_GT(reqs.size(), 10u);

  const auto run_once = [&](flt::FaultInjector* inj) {
    pg::Runtime rt = make_rt();
    if (inj != nullptr) rt.set_fault_injector(inj);
    strm::DynamicGraph dg(rt, el);
    srv::ServerOptions so;
    so.window_ns = 8e3;
    so.max_queue = 100000;  // admission must not depend on service speed
    srv::QueryServer s(dg, wp.sessions, so);
    bool published = false;
    for (const auto& r : reqs) {
      if (!published && r.arrive_ns >= 0.5 * wp.horizon_ns) {
        s.publish(0.5 * wp.horizon_ns, pub);
        published = true;
      }
      s.offer(r);
    }
    std::vector<std::tuple<srv::Status, std::uint64_t, std::uint64_t>> out;
    const srv::ServeStats st = s.finish();
    for (const auto& o : s.outcomes())
      out.emplace_back(o.status, o.answer, o.epoch);
    return std::pair{out, st};
  };

  const auto [clean, clean_st] = run_once(nullptr);
  // drop=0.3 with the default retry budget of 6 makes per-message retry
  // exhaustion (p = 0.3^7) statistically certain across this many exchange
  // epochs; a raised budget keeps every drop recoverable so the run always
  // completes and the comparison below is about costs, not survival.
  flt::FaultInjector inj(
      flt::FaultConfig::parse("drop=0.1,retries=24", chaos_seed()));
  const auto [faulted, faulted_st] = run_once(&inj);

  // Bit identity: every request resolves to the same status, answer and
  // epoch, no matter how many retransmits the flushes needed.
  ASSERT_EQ(clean.size(), faulted.size());
  for (std::size_t i = 0; i < clean.size(); ++i) EXPECT_EQ(clean[i], faulted[i]) << i;
  EXPECT_EQ(faulted_st.shed, 0u);
  EXPECT_EQ(clean_st.completed, faulted_st.completed);

  // The faults really happened, and their recovery cost lands in the tail.
  EXPECT_GT(inj.counters().drops, 0u);
  EXPECT_GT(inj.counters().retransmits, 0u);
  EXPECT_GT(inj.counters().retry_wait_ns, 0u);
  EXPECT_GT(faulted_st.p99_ns, clean_st.p99_ns);
  EXPECT_GT(faulted_st.service_ns, clean_st.service_ns);
}

// -------------------------------------------------------------- resilience

TEST(ServeWorkload, RejectsNanAndNegativeParamsEagerly) {
  // Each bad field throws before any arrival is drawn: NaN compares false
  // against everything, so the checks are phrased as positive acceptance.
  const double nan = std::nan("");
  const auto bad = [](auto&& mutate) {
    srv::WorkloadParams p;
    p.sessions = 2;
    p.rate_rps = 1e6;
    p.horizon_ns = 1e6;
    mutate(p);
    EXPECT_THROW(srv::generate_workload(10, 1, p), std::invalid_argument);
  };
  bad([&](srv::WorkloadParams& p) { p.rate_rps = -1.0; });
  bad([&](srv::WorkloadParams& p) { p.rate_rps = nan; });
  bad([&](srv::WorkloadParams& p) { p.zipf_s = -0.1; });
  bad([&](srv::WorkloadParams& p) { p.zipf_s = nan; });
  bad([&](srv::WorkloadParams& p) { p.phase_ns = -1.0; });
  bad([&](srv::WorkloadParams& p) { p.phase_ns = nan; });
  bad([&](srv::WorkloadParams& p) { p.deadline_ns = -1.0; });
  bad([&](srv::WorkloadParams& p) { p.deadline_ns = nan; });
  bad([&](srv::WorkloadParams& p) { p.horizon_ns = nan; });
}

TEST(ServeWorkload, DeadlineSamplingIsStatelessAndBounded) {
  srv::WorkloadParams p;
  p.sessions = 3;
  p.rate_rps = 2e5;
  p.horizon_ns = 5e5;
  srv::WorkloadParams pd = p;
  pd.deadline_ns = 1e6;
  const auto plain = srv::generate_workload(50, 7, p);
  const auto with = srv::generate_workload(50, 7, pd);
  // Deadlines ride a stateless hash stream: enabling them must not perturb
  // arrivals, tenants or keys.
  ASSERT_EQ(plain.size(), with.size());
  ASSERT_GT(plain.size(), 5u);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain[i].arrive_ns, with[i].arrive_ns);
    EXPECT_EQ(plain[i].tenant, with[i].tenant);
    EXPECT_EQ(plain[i].u, with[i].u);
    EXPECT_EQ(plain[i].v, with[i].v);
    EXPECT_DOUBLE_EQ(plain[i].deadline_ns, 0.0);
    EXPECT_GE(with[i].deadline_ns, 0.5 * pd.deadline_ns);
    EXPECT_LT(with[i].deadline_ns, 1.5 * pd.deadline_ns);
  }
  // And the draw per (tenant, index) is reproducible.
  const auto again = srv::generate_workload(50, 7, pd);
  for (std::size_t i = 0; i < with.size(); ++i)
    EXPECT_DOUBLE_EQ(with[i].deadline_ns, again[i].deadline_ns);
}

TEST(ServeResilience, OffOnBitIdenticalWithoutFaults) {
  // The resilience layer is pay-for-what-you-use: with no faults and no
  // overload, enabling it (deadlines carried, budgets armed, brownout on)
  // must not change a single outcome or a nanosecond of modeled time.
  srv::WorkloadParams wp;
  wp.sessions = 2;
  wp.rate_rps = 3e5;
  wp.horizon_ns = 1e5;
  wp.deadline_ns = 1e7;  // generous: never binds at this load
  const auto reqs = srv::generate_workload(60, 11, wp);
  ASSERT_GT(reqs.size(), 8u);

  const auto run_once = [&](bool resilient) {
    pg::Runtime rt = make_rt(2, 2);
    strm::DynamicGraph dg(rt, tiny_graph());
    srv::ServerOptions so;
    so.window_ns = 5e3;
    so.resilience.enabled = resilient;
    so.resilience.brownout = true;
    srv::QueryServer s(dg, wp.sessions, so);
    for (const auto& r : reqs) s.offer(r);
    const srv::ServeStats st = s.finish();
    return std::pair{s.outcomes(), st};
  };
  const auto [off, off_st] = run_once(false);
  const auto [on, on_st] = run_once(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].status, on[i].status) << i;
    EXPECT_EQ(off[i].answer, on[i].answer) << i;
    EXPECT_EQ(off[i].epoch, on[i].epoch) << i;
    EXPECT_DOUBLE_EQ(off[i].start_ns, on[i].start_ns) << i;
    EXPECT_DOUBLE_EQ(off[i].done_ns, on[i].done_ns) << i;
  }
  EXPECT_DOUBLE_EQ(off_st.service_ns, on_st.service_ns);
  EXPECT_EQ(on_st.breaker_trips, 0u);
  EXPECT_EQ(on_st.brownout_enters, 0u);
  EXPECT_EQ(on_st.shed_deadline, 0u);
}

TEST(ServeResilience, DeadlineExpiredShedsBeforeBackend) {
  pg::Runtime rt = make_rt(2, 2);
  strm::DynamicGraph dg(rt, tiny_graph());
  srv::ServerOptions so;
  so.window_ns = 1000.0;
  so.resilience.enabled = true;
  srv::QueryServer s(dg, 1, so);

  // A shares the window; B's tight deadline drags the close forward (the
  // flush budget is the min over members) and still expires in the queue.
  s.offer(req(0.0, 0, srv::QueryKind::SameComponent, 1, 2));
  srv::Request b = req(1.0, 0, srv::QueryKind::SameComponent, 10, 11);
  b.deadline_ns = 5.0;
  const std::size_t bi = s.offer(b);
  const srv::ServeStats st = s.finish();

  EXPECT_EQ(s.outcomes()[bi].status, srv::Status::Shed);
  EXPECT_EQ(s.outcomes()[bi].shed_reason, srv::ShedReason::DeadlineExpired);
  EXPECT_EQ(st.shed_deadline, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(s.outcomes()[0].status, srv::Status::Ok);
  EXPECT_EQ(st.offered, st.completed + st.shed + st.stale + st.degraded);
  EXPECT_EQ(st.shed,
            st.shed_queue_full + st.shed_breaker_open + st.shed_deadline);
}

TEST(ServeResilience, BreakerTripsHalfOpensAndCloses) {
  pg::Runtime rt = make_rt(2, 2);
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=1,retries=0,arm=0",
                                                 chaos_seed()));
  rt.set_fault_injector(&inj);
  strm::DynamicGraph dg(rt, tiny_graph());  // construction runs disarmed
  srv::ServerOptions so;
  so.window_ns = 0.0;  // flush per request: each offer is one verdict
  so.resilience.enabled = true;
  so.resilience.retry_tokens = 0.0;  // no retries: failures hit the breaker
  so.resilience.breaker_trip_after = 2;
  so.resilience.breaker_cooldown_ns = 1e6;
  so.resilience.brownout = false;  // isolate the breaker machinery
  srv::QueryServer s(dg, 1, so);
  inj.set_armed(true);

  s.offer(req(0.0, 0, srv::QueryKind::SameComponent, 1, 2));
  s.offer(req(1e5, 0, srv::QueryKind::SameComponent, 1, 3));  // failure #1
  s.offer(req(2e5, 0, srv::QueryKind::SameComponent, 2, 3));  // #2: trips
  // Open breaker fast-fails admission during the cooldown.
  s.offer(req(3e5, 0, srv::QueryKind::SameComponent, 1, 2));
  // After the cooldown the breaker half-opens; the probe must reach the
  // (now healthy) backend and close it again.
  inj.set_armed(false);
  s.offer(req(2e6, 0, srv::QueryKind::SameComponent, 1, 2));
  const srv::ServeStats st = s.finish();

  EXPECT_EQ(st.flush_failures, 2u);
  EXPECT_EQ(st.retry_denied, 2u);
  EXPECT_EQ(st.breaker_trips, 1u);
  EXPECT_EQ(st.breaker_half_opens, 1u);
  EXPECT_EQ(st.breaker_closes, 1u);
  EXPECT_EQ(st.completed, 1u);  // the probe
  EXPECT_GE(st.shed_breaker_open, 1u);  // admission fast-fail at 3e5
  EXPECT_EQ(st.offered, st.completed + st.shed + st.stale + st.degraded);
  EXPECT_EQ(st.shed,
            st.shed_queue_full + st.shed_breaker_open + st.shed_deadline);
  EXPECT_GT(st.failed_ns, 0.0);

  // The transition log replays trip -> half-open -> close in time order.
  std::size_t open_at = 0, half_at = 0, close_at = 0;
  for (std::size_t i = 0; i < st.events.size(); ++i) {
    if (st.events[i].kind == srv::ServeEventKind::BreakerOpen) open_at = i;
    if (st.events[i].kind == srv::ServeEventKind::BreakerHalfOpen)
      half_at = i;
    if (st.events[i].kind == srv::ServeEventKind::BreakerClose) close_at = i;
  }
  EXPECT_LT(open_at, half_at);
  EXPECT_LT(half_at, close_at);
}

TEST(ServeResilience, BrownoutServesDegradedFromPreviousEpoch) {
  pg::Runtime rt = make_rt(2, 2);
  strm::DynamicGraph dg(rt, tiny_graph());
  srv::ServerOptions so;
  so.window_ns = 1e5;
  so.cache = true;
  so.resilience.enabled = true;
  so.resilience.brownout = true;
  so.resilience.brownout_high = 2;  // queue pressure trips at two waiters
  so.resilience.brownout_low = 0;
  srv::QueryServer s(dg, 2, so);

  // Warm the epoch-0 cache (flush completes during the publish drain).
  s.offer(req(0.0, 0, srv::QueryKind::SameComponent, 1, 2));
  const std::vector<g::EdgeUpdate> u1 = {{20, 21, 1, g::UpdateKind::Insert}};
  s.publish(1e6, u1);  // epoch 1 is now latest; epoch 0 stays in the ring

  // Two waiters cross the high watermark; the third request brownout-hits
  // the previous epoch's cache and is served Degraded on the spot.
  s.offer(req(1.1e6, 0, srv::QueryKind::ComponentSize, 1));
  s.offer(req(1.1e6 + 1, 1, srv::QueryKind::ComponentSize, 10));
  const std::size_t di =
      s.offer(req(1.1e6 + 2, 0, srv::QueryKind::SameComponent, 1, 2));
  const srv::ServeStats st = s.finish();

  EXPECT_GE(st.brownout_enters, 1u);
  EXPECT_GE(st.brownout_exits, 1u);  // pressure drains once flushes run
  EXPECT_EQ(st.degraded, 1u);
  EXPECT_EQ(s.outcomes()[di].status, srv::Status::Degraded);
  EXPECT_EQ(s.outcomes()[di].answer, 1u);  // 1 and 2 share a component
  EXPECT_EQ(s.outcomes()[di].epoch, 0u);   // staleness bound: one epoch
  EXPECT_EQ(st.offered, st.completed + st.shed + st.stale + st.degraded);
}

TEST(ServeResilience, ServingAcrossPermanentLoss) {
  // A node dies mid-service; the server polls the loss, republishes on the
  // survivor topology, and every Ok answer stays bit-identical to the
  // fault-free run (answers are graph-semantic, not topology-dependent).
  const auto el = g::random_graph(120, 170, 31);
  const std::vector<g::EdgeUpdate> pub = {
      {0, 60, 1, g::UpdateKind::Insert}, {1, 61, 2, g::UpdateKind::Insert}};
  srv::WorkloadParams wp;
  wp.sessions = 2;
  wp.rate_rps = 4e5;
  wp.horizon_ns = 1e5;
  const auto reqs = srv::generate_workload(el.n, 17, wp);
  ASSERT_GT(reqs.size(), 10u);

  const auto run_once = [&](const char* spec) {
    pg::Runtime rt = make_rt();
    flt::FaultInjector inj(flt::FaultConfig::parse(
        spec != nullptr ? spec : "drop=0,arm=0", chaos_seed()));
    if (spec != nullptr) rt.set_fault_injector(&inj);
    strm::DynamicGraph dg(rt, el);
    srv::ServerOptions so;
    so.window_ns = 8e3;
    so.max_queue = 100000;
    so.resilience.enabled = true;
    srv::QueryServer s(dg, wp.sessions, so);
    bool published = false, armed = false;
    for (const auto& r : reqs) {
      if (!published && r.arrive_ns >= 0.4 * wp.horizon_ns) {
        s.publish(0.4 * wp.horizon_ns, pub);  // maintenance window: disarmed
        published = true;
      }
      if (!armed && r.arrive_ns >= 0.5 * wp.horizon_ns) {
        inj.set_armed(true);
        armed = true;
      }
      s.offer(r);
    }
    const srv::ServeStats st = s.finish();
    return std::pair{s.outcomes(), st};
  };

  const auto [clean, clean_st] = run_once(nullptr);
  const auto [lossy, lossy_st] = run_once("loss_at=1,loss_node=2,arm=0");

  EXPECT_GE(lossy_st.recoveries, 1u);
  EXPECT_GT(lossy_st.recovery_ns, 0.0);
  EXPECT_EQ(lossy_st.offered, lossy_st.completed + lossy_st.shed +
                                  lossy_st.stale + lossy_st.degraded);
  ASSERT_EQ(clean.size(), lossy.size());
  std::size_t compared = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i].status != srv::Status::Ok ||
        lossy[i].status != srv::Status::Ok)
      continue;
    EXPECT_EQ(clean[i].answer, lossy[i].answer) << i;
    EXPECT_EQ(clean[i].epoch, lossy[i].epoch) << i;
    ++compared;
  }
  EXPECT_GT(compared, reqs.size() / 2);
}

TEST(ServeResilience, EveryExitSettlesOnce) {
  // One scripted session that leaves by each of the server's nine exits:
  // Ok from a flush, from a failed flush's store and from the brownout
  // cache at arrival; Degraded from a failed flush and at arrival; Stale;
  // and shed for a full queue, an expired deadline, a failed flush and an
  // open breaker at arrival.  The ledger must count each exactly once.
  pg::Runtime rt = make_rt(2, 2);
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=1,retries=0,arm=0",
                                                 chaos_seed()));
  rt.set_fault_injector(&inj);
  strm::DynamicGraph dg(rt, tiny_graph());  // construction runs disarmed
  srv::ServerOptions so;
  so.window_ns = 1000.0;
  so.max_queue = 2;
  so.resilience.enabled = true;
  so.resilience.retry_tokens = 0.0;  // a failed flush is final
  so.resilience.breaker_trip_after = 1;
  so.resilience.breaker_cooldown_ns = 1e9;  // stays open to the end
  srv::QueryServer s(dg, 2, so);
  using K = srv::QueryKind;
  const std::vector<g::EdgeUpdate> u1 = {{20, 21, 1, g::UpdateKind::Insert}};
  const std::vector<g::EdgeUpdate> u2 = {{22, 23, 2, g::UpdateKind::Insert}};

  s.offer(req(0.0, 0, K::SameComponent, 1, 2));  // 0: Ok, epoch 0
  s.publish(1e6, u1);
  s.offer(req(1.1e6, 0, K::SameComponent, 1, 2));      // 1: Ok, epoch 1
  s.offer(req(1.1e6 + 1, 0, K::ComponentSize, 1));     // 2: Ok, epoch 1
  s.publish(2e6, u2);  // evicts epoch 0
  s.offer(req(2.1e6, 1, K::SameComponent, 1, 2, 0));   // 3: Stale
  srv::Request late = req(2.1e6 + 1, 1, K::SameComponent, 10, 11);
  late.deadline_ns = 5.0;
  s.offer(late);                                       // 4: deadline shed
  s.offer(req(2.1e6 + 2, 1, K::ComponentSize, 3));     // 5: queue full
  s.offer(req(2.1e6 + 3, 0, K::ComponentSize, 10));    // 6: Ok, epoch 2
  s.offer(req(10e6, 0, K::SameComponent, 2, 3));       // 7: shed by flush
  s.offer(req(10e6 + 1, 0, K::ComponentSize, 1));      // 8: Degraded
  s.offer(req(10e6 + 2, 1, K::ComponentSize, 10));     // 9: Ok from store
  inj.set_armed(true);  // the window of 7-9 fails and trips both breakers
  s.offer(req(10.5e6, 0, K::SameComponent, 1, 2));     // 10: Degraded
  s.offer(req(10.5e6 + 1, 1, K::ComponentSize, 10));   // 11: Ok, cache
  s.offer(req(10.5e6 + 2, 0, K::ComponentSize, 5));    // 12: breaker shed
  const srv::ServeStats st = s.finish();

  using S = srv::Status;
  using R = srv::ShedReason;
  const std::vector<std::tuple<S, R, std::uint64_t, std::uint64_t>> want = {
      {S::Ok, R::None, 1, 0},           {S::Ok, R::None, 1, 1},
      {S::Ok, R::None, 3, 1},           {S::StaleEpoch, R::None, 0, 0},
      {S::Shed, R::DeadlineExpired, 0, 2},
      {S::Shed, R::QueueFull, 0, 2},    {S::Ok, R::None, 2, 2},
      {S::Shed, R::BreakerOpen, 0, 2},  {S::Degraded, R::None, 3, 1},
      {S::Ok, R::None, 2, 2},           {S::Degraded, R::None, 1, 1},
      {S::Ok, R::None, 2, 2},           {S::Shed, R::BreakerOpen, 0, 2}};
  ASSERT_EQ(s.outcomes().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const srv::Outcome& o = s.outcomes()[i];
    EXPECT_EQ(o.status, std::get<0>(want[i])) << i;
    EXPECT_EQ(o.shed_reason, std::get<1>(want[i])) << i;
    EXPECT_EQ(o.answer, std::get<2>(want[i])) << i;
    EXPECT_EQ(o.epoch, std::get<3>(want[i])) << i;
  }
  EXPECT_EQ(st.flush_failures, 1u);
  EXPECT_EQ(st.breaker_trips, 2u);
  EXPECT_EQ(st.brownout_cache_ok, 1u);
  EXPECT_EQ(st.tenants[0].completed, 4u);
  EXPECT_EQ(st.tenants[1].completed, 2u);
  EXPECT_EQ(st.tenants[0].degraded, 2u);
  EXPECT_EQ(st.tenants[1].stale, 1u);
  EXPECT_EQ(st.tenants[0].shed, 2u);
  EXPECT_EQ(st.tenants[1].shed, 2u);
  expect_ledger_consistent(s, st);
  // The makespan ends at the last answer (11), not at the shed after it,
  // and the failed flush ended before either.
  ASSERT_LT(s.outcomes()[7].done_ns, 10.5e6);
  EXPECT_EQ(st.last_done_ns, 10.5e6 + 1);
  EXPECT_EQ(st.makespan_ns, 10.5e6 + 1);
}

TEST(ServeResilience, ChaosMatrixNoCrashAndConservation) {
  // Seeds x fault plans: whatever the plan does, the resilient server
  // never lets a FaultError escape, and every offered request is accounted
  // for exactly once (completed/shed/stale/degraded, with the shed split
  // summing up), in the per-tenant counters and in outcomes() alike.
  const auto el = g::random_graph(120, 170, 37);
  const std::vector<g::EdgeUpdate> pub = {
      {0, 60, 1, g::UpdateKind::Insert}};
  const char* specs[] = {
      "drop=0.15,retries=6,arm=0",
      "outage_every=5,outage_k=2,arm=0",
      "straggle=0.4,straggle_ns=20000,arm=0",
      "loss_at=1,loss_node=1,arm=0",
  };
  srv::WorkloadParams wp;
  wp.sessions = 2;
  wp.rate_rps = 3e5;
  wp.horizon_ns = 1e5;
  wp.deadline_ns = 5e6;
  const std::uint64_t base = chaos_seed();
  for (std::uint64_t seed = base; seed < base + 3; ++seed) {
    const auto reqs = srv::generate_workload(el.n, 19 + seed, wp);
    for (const char* spec : specs) {
      pg::Runtime rt = make_rt();
      flt::FaultInjector inj(flt::FaultConfig::parse(spec, seed));
      rt.set_fault_injector(&inj);
      strm::DynamicGraph dg(rt, el);
      srv::ServerOptions so;
      so.window_ns = 8e3;
      so.resilience.enabled = true;
      srv::QueryServer s(dg, wp.sessions, so);
      bool published = false, armed = false;
      srv::ServeStats st;
      ASSERT_NO_THROW({
        for (const auto& r : reqs) {
          if (!published && r.arrive_ns >= 0.4 * wp.horizon_ns) {
            s.publish(0.4 * wp.horizon_ns, pub);
            published = true;
          }
          if (!armed && r.arrive_ns >= 0.5 * wp.horizon_ns) {
            inj.set_armed(true);
            armed = true;
          }
          s.offer(r);
        }
        st = s.finish();
      }) << "seed " << seed << " spec " << spec;
      EXPECT_EQ(st.offered,
                st.completed + st.shed + st.stale + st.degraded)
          << "seed " << seed << " spec " << spec;
      EXPECT_EQ(st.shed, st.shed_queue_full + st.shed_breaker_open +
                             st.shed_deadline)
          << "seed " << seed << " spec " << spec;
      EXPECT_EQ(st.offered, reqs.size());
      SCOPED_TRACE(testing::Message() << "seed " << seed << " spec " << spec);
      expect_ledger_consistent(s, st);
    }
  }
}

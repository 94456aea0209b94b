// SPMD runtime: the fiber executor, cost-aligned barriers, failure on a
// divergent throw, registry, exchange pricing, per-thread cost tallies,
// value collectives.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "fault/fault.hpp"
#include "pgas/coll.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace c = pgraph::coll;
namespace flt = pgraph::fault;

namespace {
pg::Runtime make_rt(int nodes, int threads) {
  return pg::Runtime(pg::Topology::cluster(nodes, threads),
                     m::CostParams::hps_cluster());
}

/// Worker threads the executor uses for `s` SPMD threads: one per CPU in
/// this process's affinity mask, at most s.
int expected_workers(int s) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::min(s, std::max(1, cpus));
}

/// Kernel thread ids of this process's OS threads, from /proc/self/task.
/// A thread that was just joined can linger there briefly, so tests compare
/// sets of ids, not counts.
std::set<int> os_thread_ids() {
  std::set<int> ids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ids.insert(std::stoi(e.path().filename().string()));
  return ids;
}
}  // namespace

TEST(Topology, Mapping) {
  const pg::Topology t = pg::Topology::cluster(4, 3);
  EXPECT_EQ(t.total_threads(), 12);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(2), 0);
  EXPECT_EQ(t.node_of(3), 1);
  EXPECT_EQ(t.node_of(11), 3);
  EXPECT_TRUE(t.same_node(3, 5));
  EXPECT_FALSE(t.same_node(2, 3));
  const auto map = t.thread_node_map();
  EXPECT_EQ(map.size(), 12u);
  EXPECT_EQ(map[7], 2);
}

TEST(Runtime, RunsAllThreadsWithDistinctIds) {
  auto rt = make_rt(2, 3);
  std::vector<std::atomic<int>> seen(6);
  rt.run([&](pg::ThreadCtx& ctx) {
    seen[static_cast<std::size_t>(ctx.id())].fetch_add(1);
    EXPECT_EQ(ctx.node(), ctx.id() / 3);
    EXPECT_EQ(ctx.nthreads(), 6);
    EXPECT_EQ(ctx.nnodes(), 2);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Runtime, BarrierAlignsClocksToCriticalThread) {
  auto rt = make_rt(1, 4);
  std::vector<double> after(4);
  rt.run([&](pg::ThreadCtx& ctx) {
    if (ctx.id() == 2) ctx.charge(m::Cat::Work, 1e6);  // 1 ms on one thread
    ctx.barrier();
    after[static_cast<std::size_t>(ctx.id())] = ctx.now_ns();
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(after[static_cast<std::size_t>(i)], 1e6);
    EXPECT_DOUBLE_EQ(after[static_cast<std::size_t>(i)], after[0]);
  }
  EXPECT_GE(rt.modeled_time_ns(), 1e6);
}

TEST(Runtime, FineTrafficDrainRaisesSuperstepFloor) {
  // Enough messages that the hot receiver's NIC (with burst congestion)
  // binds the superstep, not the senders' own clocks.
  constexpr int kPuts = 2000;
  auto rt = make_rt(4, 2);
  rt.run([&](pg::ThreadCtx& ctx) {
    // Everyone hammers node 3 with fine-grained puts.
    if (ctx.node() != 3)
      for (int i = 0; i < kPuts; ++i) ctx.remote_put_cost(7, 8);
    ctx.barrier();
  });
  const double hot_ns = rt.modeled_time_ns();
  auto rt2 = make_rt(4, 2);
  rt2.run([&](pg::ThreadCtx& ctx) {
    // Balanced: each thread sends to its "mirror" node.
    const int target = ((ctx.node() + 2) % 4) * 2;
    for (int i = 0; i < kPuts; ++i) ctx.remote_put_cost(target, 8);
    ctx.barrier();
  });
  EXPECT_GT(hot_ns, 1.3 * rt2.modeled_time_ns());
}

TEST(Runtime, ExchangeBarrierPricesPostedMessages) {
  auto rt = make_rt(2, 1);
  rt.run([&](pg::ThreadCtx& ctx) {
    ctx.post_exchange_msg(1 - ctx.id(), 1 << 20);  // 1 MiB each way
    ctx.exchange_barrier();
  });
  const auto& p = rt.params();
  const double min_expected = (1 << 20) * p.net_inv_bw_ns_per_byte;
  EXPECT_GT(rt.modeled_time_ns(), min_expected);
  EXPECT_EQ(rt.net().total_messages(), 2u);
}

TEST(Runtime, SameNodeExchangeMessagesAreMemoryCopies) {
  auto rt = make_rt(1, 2);
  rt.run([&](pg::ThreadCtx& ctx) {
    ctx.post_exchange_msg(1 - ctx.id(), 1 << 20);
    ctx.exchange_barrier();
  });
  EXPECT_EQ(rt.net().total_messages(), 0u);  // no network crossing
}

TEST(Runtime, ResetCostsZeroesEverything) {
  auto rt = make_rt(2, 1);
  rt.run([&](pg::ThreadCtx& ctx) {
    ctx.charge(m::Cat::Work, 1e6);
    ctx.remote_put_cost(1 - ctx.id(), 8);
    ctx.barrier();
  });
  EXPECT_GT(rt.modeled_time_ns(), 0.0);
  rt.reset_costs();
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), 0.0);
  EXPECT_EQ(rt.net().total_messages(), 0u);
  EXPECT_DOUBLE_EQ(rt.critical_stats().total(), 0.0);
}

TEST(Runtime, StatsPersistAcrossRunsUntilReset) {
  auto rt = make_rt(1, 2);
  rt.run([&](pg::ThreadCtx& ctx) { ctx.charge(m::Cat::Sort, 100.0); });
  rt.run([&](pg::ThreadCtx& ctx) { ctx.charge(m::Cat::Sort, 50.0); });
  EXPECT_DOUBLE_EQ(rt.critical_stats().get(m::Cat::Sort), 150.0);
}

TEST(Runtime, RegistryPublishAndPeer) {
  auto rt = make_rt(2, 2);
  rt.run([&](pg::ThreadCtx& ctx) {
    int mine = 100 + ctx.id();
    ctx.publish(0, &mine);
    ctx.barrier();
    const int peer = (ctx.id() + 1) % ctx.nthreads();
    EXPECT_EQ(*ctx.peer_as<int>(peer, 0), 100 + peer);
    ctx.barrier();
  });
}

// --- executor ----------------------------------------------------------

namespace {

/// Longer than the executor's engage time (about 50 us): a superstep that
/// spins this long on the calling thread wakes the helper workers.
constexpr std::chrono::microseconds kEngage{1000};

/// Busy-compute (no blocking wait) for `d` on the calling OS thread.
void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// OS thread of every SPMD thread at each of `steps` barriers of one run.
struct OsThreadLog {
  OsThreadLog(int s, int steps)
      : at(static_cast<std::size_t>(s),
           std::vector<std::thread::id>(static_cast<std::size_t>(steps))) {}
  void note(const pg::ThreadCtx& ctx, int step) {
    at[static_cast<std::size_t>(ctx.id())][static_cast<std::size_t>(step)] =
        std::this_thread::get_id();
  }
  std::set<std::thread::id> distinct() const {
    std::set<std::thread::id> ids;
    for (const auto& row : at) ids.insert(row.begin(), row.end());
    return ids;
  }
  std::vector<std::vector<std::thread::id>> at;
};

/// Runs short supersteps on `rt` until one run keeps every SPMD thread on
/// the calling thread, at most 20 times; returns whether one did.  Such a
/// run never wakes a helper, but the engage time is wall time, so a host
/// that deschedules the caller mid-superstep can make a short superstep
/// look long.
bool stays_on_caller(pg::Runtime& rt, int steps) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    OsThreadLog log(rt.topo().total_threads(), steps);
    rt.run([&](pg::ThreadCtx& ctx) {
      for (int b = 0; b < steps; ++b) {
        log.note(ctx, b);
        ctx.barrier();
      }
    });
    if (log.distinct() == std::set{std::this_thread::get_id()}) return true;
  }
  return false;
}

}  // namespace

TEST(Runtime, SixtyFourThreadsRunOnOneWorkerPerCore) {
  // This thread, plus any helper thread a sanitizer runtime starts (TSan
  // starts one with the process's first extra thread).
  std::thread([] {}).join();
  const std::set<int> before = os_thread_ids();
  ASSERT_FALSE(before.empty());
  auto rt = make_rt(16, 4);
  std::set<int> during;
  rt.run([&](pg::ThreadCtx& ctx) {
    ctx.barrier();  // every SPMD thread has started
    if (ctx.id() == 0) during = os_thread_ids();
    ctx.barrier();
  });
  // The calling thread is worker 0; the first run starts W - 1 helpers.
  std::vector<int> started;
  std::set_difference(during.begin(), during.end(), before.begin(),
                      before.end(), std::back_inserter(started));
  EXPECT_EQ(started.size(), static_cast<std::size_t>(expected_workers(64) - 1));
}

TEST(Runtime, ShortSuperstepsRunOnTheCallingThread) {
  auto rt = make_rt(4, 2);
  EXPECT_TRUE(stays_on_caller(rt, 6));
  // The mode is chosen per run: after a run that engaged the helpers, a
  // run of short supersteps is back on the calling thread.
  rt.run([](pg::ThreadCtx& ctx) {
    spin_for(kEngage);
    ctx.barrier();
  });
  EXPECT_TRUE(stays_on_caller(rt, 6));
}

TEST(Runtime, LongSuperstepEngagesHelpersAndPinsThreads) {
  constexpr int kSteps = 6;
  const int w = expected_workers(8);
  auto rt = make_rt(4, 2);
  OsThreadLog log(8, kSteps);
  rt.run([&](pg::ThreadCtx& ctx) {
    spin_for(kEngage);
    for (int b = 0; b < kSteps; ++b) {
      ctx.barrier();
      log.note(ctx, b);
    }
  });
  if (w > 1) {
    EXPECT_GE(log.distinct().size(), 2u);
  }
  // From the barrier after the engaging superstep on, thread i stays on
  // worker i mod W, and worker 0 is the calling thread.
  for (int i = 0; i < 8; ++i) {
    const auto& row = log.at[static_cast<std::size_t>(i)];
    for (int b = 1; b < kSteps; ++b) EXPECT_EQ(row[b], row[0]) << i;
    EXPECT_EQ(row[0], log.at[static_cast<std::size_t>(i % w)][0]) << i;
    if (i % w == 0) {
      EXPECT_EQ(row[0], std::this_thread::get_id()) << i;
    } else {
      EXPECT_NE(row[0], std::this_thread::get_id()) << i;
    }
  }
}

namespace {

// current_ctx() names each SPMD thread's ThreadCtx across six barriers, on
// whatever OS thread it runs, and is null on the calling thread after
// run().  With `spin`, thread 4 spins in the first superstep after threads
// 0-3 have parked on the calling thread, so the helpers engage
// mid-superstep: with 4 workers, threads 1-3 resume on helpers after
// parking on the caller, and threads 5-7 start that superstep on a helper.
void expect_current_ctx_follows(int nodes, int threads, bool spin) {
  auto rt = make_rt(nodes, threads);
  const int s = nodes * threads;
  for (int rep = 0; rep < (spin ? 50 : 1); ++rep) {
    std::atomic<int> wrong{0};
    OsThreadLog log(s, 7);
    rt.run([&](pg::ThreadCtx& ctx) {
      for (int b = 0; b < 6; ++b) {
        if (pg::current_ctx() != &ctx) wrong.fetch_add(1);
        log.note(ctx, b);
        if (spin && b == 0 && ctx.id() == 4)
          spin_for(std::chrono::microseconds(200));
        ctx.barrier();
      }
      if (pg::current_ctx() != &ctx) wrong.fetch_add(1);
      log.note(ctx, 6);
    });
    EXPECT_EQ(wrong.load(), 0) << "repetition " << rep;
    EXPECT_EQ(pg::current_ctx(), nullptr) << "repetition " << rep;
    if (spin && expected_workers(s) > 1) {
      EXPECT_GE(log.distinct().size(), 2u) << "repetition " << rep;
    }
  }
}

}  // namespace

TEST(Runtime, CurrentCtxFollowsTheSpmdThreadAcrossBarriers) {
  expect_current_ctx_follows(16, 4, false);
}

TEST(Runtime, CurrentCtxFollowsThreadsThatChangeOsThread) {
  expect_current_ctx_follows(4, 2, true);
}

TEST(Runtime, FloatingPointModeIsPerSpmdThread) {
  for (const bool engage : {false, true}) {
    auto rt = make_rt(4, 2);
    std::atomic<int> wrong{0};
    rt.run([&](pg::ThreadCtx& ctx) {
      if (engage && ctx.id() == 0) spin_for(kEngage);
      if (ctx.id() == 3) std::fesetround(FE_UPWARD);
      ctx.barrier();
      ctx.barrier();
      volatile double one = 1.0;
      volatile double three = 3.0;
      const double third = one / three;  // SSE: rounds per MXCSR
      const bool up = ctx.id() == 3;
      if (std::fegetround() != (up ? FE_UPWARD : FE_TONEAREST))
        wrong.fetch_add(1);
      if ((third > 1.0 / 3.0) != up) wrong.fetch_add(1);
    });
    EXPECT_EQ(wrong.load(), 0) << (engage ? "engaged" : "serial");
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  }
}

TEST(Runtime, RunsFromAnotherHostThreadInBothModes) {
  auto rt = make_rt(4, 2);
  // OS threads seen by a run whose threads first spin past the engage time.
  const auto engaged_run = [&rt] {
    OsThreadLog log(8, 4);
    rt.run([&](pg::ThreadCtx& ctx) {
      spin_for(std::chrono::microseconds(200));
      for (int b = 0; b < 4; ++b) {
        ctx.barrier();
        log.note(ctx, b);
      }
    });
    return log.distinct();
  };
  const bool helpers = expected_workers(8) > 1;
  const auto main_ids = engaged_run();
  EXPECT_TRUE(main_ids.count(std::this_thread::get_id()));
  std::thread([&] {
    EXPECT_TRUE(stays_on_caller(rt, 4));
    const auto ids = engaged_run();
    EXPECT_TRUE(ids.count(std::this_thread::get_id()));
    if (helpers) {
      EXPECT_GE(ids.size(), 2u);
    }
    EXPECT_EQ(pg::current_ctx(), nullptr);
  }).join();
  EXPECT_TRUE(stays_on_caller(rt, 4));
  EXPECT_EQ(pg::current_ctx(), nullptr);
}

TEST(Runtime, EmptyRunsAddExactlyTwoBarriersEach) {
  constexpr int kRuns = 1000;
  auto rt = make_rt(16, 4);
  for (int r = 0; r < kRuns; ++r) rt.run([](pg::ThreadCtx&) {});
  EXPECT_EQ(rt.barriers_executed(), 2u * kRuns);
  EXPECT_EQ(rt.epoch(), 2u * kRuns);
}

TEST(Runtime, DestructsWithoutEverRunning) {
  { auto rt = make_rt(16, 4); }
  SUCCEED();
}

TEST(Runtime, DestructsRightAfterCollectiveFault) {
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=1.0,retries=0", 1));
  auto rt = make_rt(4, 2);
  rt.set_fault_injector(&inj);
  EXPECT_THROW(rt.run([](pg::ThreadCtx& ctx) {
    ctx.post_exchange_msg((ctx.id() + 2) % ctx.nthreads(), 64);
    ctx.exchange_barrier();
  }),
               flt::FaultError);
}

// --- exceptions leaving f ------------------------------------------------

namespace {

// Every thread throws after the same barrier: no barrier runs after the
// throw.  With `engage`, thread 0's first superstep is long enough to wake
// the helpers.
void expect_collective_throw_adds_no_barrier(int nodes, int threads,
                                             bool engage) {
  auto rt = make_rt(nodes, threads);
  const int s = nodes * threads;
  OsThreadLog log(s, 1);
  EXPECT_THROW(rt.run([&](pg::ThreadCtx& ctx) {
    if (engage && ctx.id() == 0) spin_for(kEngage);
    ctx.charge(m::Cat::Work, 1000.0 * (ctx.id() + 1));
    ctx.barrier();
    log.note(ctx, 0);
    ctx.charge(m::Cat::Work, 5.0);
    throw std::runtime_error("every thread");
  }),
               std::runtime_error);
  // The initial barrier and the one in f; no final alignment.
  EXPECT_EQ(rt.barriers_executed(), 2u);
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), rt.last_barrier_verdict().t_final);
  EXPECT_DOUBLE_EQ(rt.critical_stats().get(m::Cat::Work), 1000.0 * s + 5.0);
  if (engage && expected_workers(s) > 1) {
    EXPECT_GE(log.distinct().size(), 2u);
  }
}

/// After reset_costs(), `rt` must behave like a fresh Runtime.
void expect_like_fresh_after_reset(pg::Runtime& rt, int nodes, int threads) {
  const auto body = [threads](pg::ThreadCtx& ctx) {
    ctx.charge(m::Cat::Work, 10.0 * (ctx.id() + 1));
    ctx.remote_put_cost((ctx.id() + threads) % ctx.nthreads(), 8);
    ctx.barrier();
    EXPECT_EQ(pg::allreduce_sum(ctx, 1), ctx.nthreads());
  };
  rt.reset_costs();
  rt.run(body);
  auto fresh = make_rt(nodes, threads);
  fresh.run(body);
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), fresh.modeled_time_ns());
  EXPECT_EQ(rt.barriers_executed(), fresh.barriers_executed());
  EXPECT_EQ(rt.net().total_messages(), fresh.net().total_messages());
}

// Thread 1 throws while every other thread waits in a barrier: run() must
// rethrow thread 1's exception instead of hanging, no catch clause in f may
// see the unwinding, and after reset_costs() the Runtime must behave like a
// fresh one.  With `engage`, the helpers are woken before thread 1 throws.
void expect_divergent_throw_fails_loud(int nodes, int threads, bool engage) {
  auto rt = make_rt(nodes, threads);
  const int s = nodes * threads;
  OsThreadLog log(s, 1);
  std::atomic<int> past_barrier{0};
  std::atomic<int> caught_in_f{0};
  try {
    rt.run([&](pg::ThreadCtx& ctx) {
      if (engage && ctx.id() == 0) spin_for(kEngage);
      log.note(ctx, 0);
      ctx.charge(m::Cat::Work, 100.0);
      if (ctx.id() == 1) throw std::runtime_error("thread 1 diverged");
      try {
        ctx.barrier();
      } catch (const std::exception&) {
        caught_in_f.fetch_add(1);
      }
      past_barrier.fetch_add(1);
    });
    ADD_FAILURE() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thread 1 diverged");
  }
  EXPECT_EQ(past_barrier.load(), 0);
  EXPECT_EQ(caught_in_f.load(), 0);
  EXPECT_EQ(rt.barriers_executed(), 1u);  // only the initial sync completed
  if (engage && expected_workers(s) > 1) {
    EXPECT_GE(log.distinct().size(), 2u);
  }
  expect_like_fresh_after_reset(rt, nodes, threads);
}

}  // namespace

TEST(Runtime, CollectiveThrowAddsNoBarrier) {
  expect_collective_throw_adds_no_barrier(2, 2, false);
}

TEST(Runtime, CollectiveThrowAddsNoBarrierWithHelpersAtEightThreads) {
  expect_collective_throw_adds_no_barrier(4, 2, true);
}

TEST(Runtime, CollectiveThrowAddsNoBarrierWithHelpersAtSixtyFourThreads) {
  expect_collective_throw_adds_no_barrier(16, 4, true);
}

TEST(Runtime, DivergentThrowFailsLoudAtEightThreads) {
  expect_divergent_throw_fails_loud(4, 2, false);
}

TEST(Runtime, DivergentThrowFailsLoudAtSixtyFourThreads) {
  expect_divergent_throw_fails_loud(16, 4, false);
}

TEST(Runtime, DivergentThrowFailsLoudWithHelpersAtEightThreads) {
  expect_divergent_throw_fails_loud(4, 2, true);
}

TEST(Runtime, DivergentThrowFailsLoudWithHelpersAtSixtyFourThreads) {
  expect_divergent_throw_fails_loud(16, 4, true);
}

TEST(Runtime, ReentrantRunFailsLoud) {
  auto rt = make_rt(4, 2);
  std::atomic<int> inner_ran{0};
  try {
    rt.run([&](pg::ThreadCtx& ctx) {
      if (ctx.id() == 0) rt.run([&](pg::ThreadCtx&) { inner_ran.fetch_add(1); });
      ctx.barrier();
    });
    ADD_FAILURE() << "run() returned normally";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("SPMD thread 0"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(inner_ran.load(), 0);
  EXPECT_EQ(pg::current_ctx(), nullptr);
  expect_like_fresh_after_reset(rt, 4, 2);
}

// --- per-thread cost tallies ---------------------------------------------

namespace {

/// The shared-resource side of one superstep's trace record.
struct StepCosts {
  pg::BarrierVerdict verdict;
  std::vector<pg::NodeSuperstep> nodes;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fine_msgs = 0;
};

class StepRecorder : public pg::TraceSink {
 public:
  void on_superstep(const pg::SuperstepRecord& rec) override {
    steps.push_back({rec.verdict, *rec.nodes, rec.msgs_delta, rec.bytes_delta,
                     rec.fine_msgs_delta});
  }
  void on_scope(int, const char*, double, double) override {}
  void on_crcw(int, const char*, double, bool) override {}

  std::vector<StepCosts> steps;
};

auto fields(const pg::BarrierVerdict& v) {
  return std::tuple(v.t_start, v.t_threads, v.t_nic, v.t_bus, v.t_exchange,
                    v.exchange_ns, v.barrier_cost_ns, v.t_final,
                    static_cast<int>(v.winner), v.had_exchange);
}

auto fields(const pg::NodeSuperstep& n) {
  return std::tuple(n.nic.service_ns, n.nic.congested_ns, n.nic.factor,
                    n.nic.msgs, n.bus_busy_ns, n.exch.send_busy_ns,
                    n.exch.recv_busy_ns, n.exch.send_finish_ns,
                    n.exch.recv_finish_ns, n.exch.msgs_out, n.exch.msgs_in);
}

/// Bit-for-bit equality of two runs' superstep records.
void expect_same_steps(const std::vector<StepCosts>& a,
                       const std::vector<StepCosts>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(fields(a[k].verdict), fields(b[k].verdict)) << "superstep " << k;
    EXPECT_EQ(a[k].msgs, b[k].msgs) << "superstep " << k;
    EXPECT_EQ(a[k].bytes, b[k].bytes) << "superstep " << k;
    EXPECT_EQ(a[k].fine_msgs, b[k].fine_msgs) << "superstep " << k;
    ASSERT_EQ(a[k].nodes.size(), b[k].nodes.size());
    for (std::size_t n = 0; n < a[k].nodes.size(); ++n)
      EXPECT_EQ(fields(a[k].nodes[n]), fields(b[k].nodes[n]))
          << "superstep " << k << " node " << n;
  }
}

/// One GetD + SetD + fine-put round on every thread, traced.  With
/// `engage`, thread 0's first superstep spins long enough to wake the
/// helpers, so the threads charge their tallies from several OS threads.
struct TallyRound {
  std::vector<StepCosts> steps;
  double modeled_ns = 0.0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fine_msgs = 0;
  std::size_t os_threads = 0;
};

TallyRound run_tally_round(int nodes, int threads, bool engage) {
  constexpr int kSteps = 4;
  StepRecorder rec;
  auto rt = make_rt(nodes, threads);
  const int s = nodes * threads;
  const std::size_t n = 64 * static_cast<std::size_t>(s);
  pg::GlobalArray<std::uint64_t> d(rt, n);
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = 3 * i + 1;
  c::CollectiveContext cc(rt);
  OsThreadLog log(s, kSteps);
  rt.set_trace_sink(&rec);
  rt.run([&](pg::ThreadCtx& ctx) {
    if (engage && ctx.id() == 0) spin_for(kEngage);
    log.note(ctx, 0);
    std::vector<std::uint64_t> idx(200 + 7 * static_cast<std::size_t>(ctx.id()));
    for (std::size_t k = 0; k < idx.size(); ++k)
      idx[k] = (k * 131 + static_cast<std::size_t>(ctx.id()) * 17) % n;
    std::vector<std::uint64_t> out(idx.size());
    c::CollWorkspace<std::uint64_t> ws;
    const auto opt = c::CollectiveOptions::optimized(4);
    c::getd(ctx, d, idx, std::span<std::uint64_t>(out), opt, cc, ws);
    log.note(ctx, 1);
    for (auto& v : out) v += ctx.id();
    c::setd(ctx, d, idx, std::span<const std::uint64_t>(out), opt, cc, ws);
    log.note(ctx, 2);
    for (int k = 0; k < 40; ++k)
      ctx.remote_put_cost((ctx.id() + 1 + 3 * k) % ctx.nthreads(), 8);
    ctx.mem_random(500, std::size_t{1} << 24, 8, m::Cat::Work);
    ctx.barrier();
    log.note(ctx, 3);
  });
  rt.set_trace_sink(nullptr);
  return {rec.steps,
          rt.modeled_time_ns(),
          rt.net().total_messages(),
          rt.net().total_bytes(),
          rt.net().fine_messages(),
          log.distinct().size()};
}

// Every superstep's NIC, bus and exchange accounting, the counter deltas,
// the verdicts and the modeled time are the same whether the threads
// charged their tallies serially on the caller or concurrently on the
// helpers.
void expect_tallies_independent_of_helpers(int nodes, int threads) {
  const TallyRound serial = run_tally_round(nodes, threads, false);
  const TallyRound engaged = run_tally_round(nodes, threads, true);
  if (expected_workers(nodes * threads) > 1) {
    EXPECT_GE(engaged.os_threads, 2u);
  }
  EXPECT_GT(serial.fine_msgs, 0u);
  EXPECT_GT(serial.msgs, serial.fine_msgs);  // exchange messages too
  expect_same_steps(serial.steps, engaged.steps);
  EXPECT_EQ(serial.modeled_ns, engaged.modeled_ns);
  EXPECT_EQ(serial.msgs, engaged.msgs);
  EXPECT_EQ(serial.bytes, engaged.bytes);
  EXPECT_EQ(serial.fine_msgs, engaged.fine_msgs);
}

}  // namespace

TEST(Runtime, TalliesMatchWithHelpersEngagedAtEightThreads) {
  expect_tallies_independent_of_helpers(4, 2);
}

TEST(Runtime, TalliesMatchWithHelpersEngagedAtSixtyFourThreads) {
  expect_tallies_independent_of_helpers(16, 4);
}

TEST(Runtime, ChargesAfterTheLastBarrierReachTheCounters) {
  auto rt = make_rt(4, 2);
  EXPECT_THROW(rt.run([](pg::ThreadCtx& ctx) {
    ctx.barrier();
    if (ctx.id() == 3) {
      // Node 1 to node 3, after the last barrier that completes.
      for (int k = 0; k < 10; ++k) ctx.remote_put_cost(7, 8);
      throw std::runtime_error("after the last barrier");
    }
  }),
               std::runtime_error);
  EXPECT_EQ(rt.net().total_messages(), 10u);
  EXPECT_EQ(rt.net().fine_messages(), 10u);
  EXPECT_EQ(rt.net().total_bytes(), 10u * (16 + 8));  // header + payload
}

TEST(Runtime, ResetAfterAThrowingRunLeavesNoPendingTally) {
  const auto body = [](pg::ThreadCtx& ctx) {
    ctx.remote_put_cost((ctx.id() + 2) % ctx.nthreads(), 8);
    ctx.mem_seq(4096, m::Cat::Work);
    ctx.barrier();
  };
  StepRecorder after_reset;
  StepRecorder fresh_steps;
  auto rt = make_rt(4, 2);
  EXPECT_THROW(rt.run([](pg::ThreadCtx& ctx) {
    ctx.barrier();
    // NIC, bus and counter charges no barrier completes.
    ctx.remote_put_cost((ctx.id() + 2) % ctx.nthreads(), 8);
    ctx.mem_seq(1 << 20, m::Cat::Work);
    if (ctx.id() == 5) throw std::runtime_error("thread 5");
    ctx.barrier();
  }),
               std::runtime_error);
  rt.reset_costs();
  rt.set_trace_sink(&after_reset);
  rt.run(body);
  rt.set_trace_sink(nullptr);
  auto fresh = make_rt(4, 2);
  fresh.set_trace_sink(&fresh_steps);
  fresh.run(body);
  fresh.set_trace_sink(nullptr);
  // The first record is the first drain: nothing from the throwing run.
  ASSERT_FALSE(after_reset.steps.empty());
  for (const pg::NodeSuperstep& n : after_reset.steps[0].nodes) {
    EXPECT_EQ(n.nic.msgs, 0u);
    EXPECT_EQ(n.bus_busy_ns, 0.0);
  }
  expect_same_steps(after_reset.steps, fresh_steps.steps);
  EXPECT_EQ(rt.modeled_time_ns(), fresh.modeled_time_ns());
  EXPECT_EQ(rt.net().total_messages(), fresh.net().total_messages());
  EXPECT_EQ(rt.net().total_bytes(), fresh.net().total_bytes());
}

TEST(Coll, AllreduceSumAndMax) {
  auto rt = make_rt(2, 3);
  rt.run([&](pg::ThreadCtx& ctx) {
    const long long sum = pg::allreduce_sum(ctx, ctx.id() + 1);
    EXPECT_EQ(sum, 1 + 2 + 3 + 4 + 5 + 6);
    const long long mx = pg::allreduce_max(ctx, 100 - ctx.id());
    EXPECT_EQ(mx, 100);
  });
}

TEST(Coll, AllreduceOr) {
  auto rt = make_rt(1, 4);
  rt.run([&](pg::ThreadCtx& ctx) {
    EXPECT_FALSE(pg::allreduce_or(ctx, false));
    EXPECT_TRUE(pg::allreduce_or(ctx, ctx.id() == 2));
    EXPECT_TRUE(pg::allreduce_or(ctx, true));
  });
}

TEST(Coll, Broadcast) {
  auto rt = make_rt(2, 2);
  rt.run([&](pg::ThreadCtx& ctx) {
    const std::uint64_t v =
        pg::broadcast<std::uint64_t>(ctx, 2, ctx.id() == 2 ? 777 : 0);
    EXPECT_EQ(v, 777u);
  });
}

TEST(Coll, ExscanSum) {
  auto rt = make_rt(1, 4);
  rt.run([&](pg::ThreadCtx& ctx) {
    long long total = 0;
    const long long pre = pg::exscan_sum<long long>(ctx, 10, &total);
    EXPECT_EQ(pre, 10 * ctx.id());
    EXPECT_EQ(total, 40);
  });
}

TEST(Coll, AllreduceChargesCommTime) {
  auto rt = make_rt(4, 1);
  rt.run([&](pg::ThreadCtx& ctx) { pg::allreduce_sum(ctx, 1); });
  EXPECT_GT(rt.critical_stats().get(m::Cat::Comm), 0.0);
}

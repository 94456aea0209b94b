// SPMD runtime: the fiber executor, cost-aligned barriers, failure on a
// divergent throw, registry, exchange pricing, value collectives.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "fault/fault.hpp"
#include "pgas/coll.hpp"
#include "pgas/runtime.hpp"

namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
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

/// OS threads of this process, from the "Threads:" line of
/// /proc/self/status (-1 if unreadable).
int os_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
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

TEST(Runtime, SixtyFourThreadsRunOnOneWorkerPerCore) {
  // This thread, plus any helper thread a sanitizer runtime starts (TSan
  // starts one with the process's first extra thread).
  std::thread([] {}).join();
  const int before = os_threads();
  ASSERT_GE(before, 1);
  auto rt = make_rt(16, 4);
  int threads = -1;
  rt.run([&](pg::ThreadCtx& ctx) {
    ctx.barrier();  // every SPMD thread has started
    if (ctx.id() == 0) threads = os_threads();
    ctx.barrier();
  });
  EXPECT_GT(threads, before);
  EXPECT_LE(threads, before + expected_workers(64));
}

TEST(Runtime, CurrentCtxFollowsTheSpmdThreadAcrossBarriers) {
  auto rt = make_rt(16, 4);
  std::atomic<int> wrong{0};
  rt.run([&](pg::ThreadCtx& ctx) {
    for (int b = 0; b < 6; ++b) {
      if (pg::current_ctx() != &ctx) wrong.fetch_add(1);
      ctx.barrier();
    }
    if (pg::current_ctx() != &ctx) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
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

TEST(Runtime, CollectiveThrowAddsNoBarrier) {
  auto rt = make_rt(2, 2);
  EXPECT_THROW(rt.run([](pg::ThreadCtx& ctx) {
    ctx.charge(m::Cat::Work, 1000.0 * (ctx.id() + 1));
    ctx.barrier();
    ctx.charge(m::Cat::Work, 5.0);
    throw std::runtime_error("every thread");
  }),
               std::runtime_error);
  // The initial barrier and the one in f; no final alignment.
  EXPECT_EQ(rt.barriers_executed(), 2u);
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), rt.last_barrier_verdict().t_final);
  EXPECT_DOUBLE_EQ(rt.critical_stats().get(m::Cat::Work), 4005.0);
}

namespace {

// Thread 1 throws while every other thread waits in a barrier: run() must
// rethrow thread 1's exception instead of hanging, no catch clause in f may
// see the unwinding, and after reset_costs() the Runtime must behave like a
// fresh one.
void expect_divergent_throw_fails_loud(int nodes, int threads) {
  auto rt = make_rt(nodes, threads);
  std::atomic<int> past_barrier{0};
  std::atomic<int> caught_in_f{0};
  try {
    rt.run([&](pg::ThreadCtx& ctx) {
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

}  // namespace

TEST(Runtime, DivergentThrowFailsLoudAtEightThreads) {
  expect_divergent_throw_fails_loud(4, 2);
}

TEST(Runtime, DivergentThrowFailsLoudAtSixtyFourThreads) {
  expect_divergent_throw_fails_loud(16, 4);
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

// Block-distributed shared array semantics and cost charging.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace pg = pgraph::pgas;
namespace m = pgraph::machine;

TEST(GlobalArray, BlockDistribution) {
  pg::Runtime rt(pg::Topology::cluster(2, 2),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> a(rt, 10);
  // ceil(10/4) = 3 per block.
  EXPECT_EQ(a.block_size(), 3u);
  EXPECT_EQ(a.owner(0), 0);
  EXPECT_EQ(a.owner(2), 0);
  EXPECT_EQ(a.owner(3), 1);
  EXPECT_EQ(a.owner(9), 3);
  EXPECT_EQ(a.block_begin(3), 9u);
  EXPECT_EQ(a.block_end(3), 10u);
  EXPECT_EQ(a.local_size(3), 1u);
  EXPECT_EQ(a.local_size(1), 3u);
}

TEST(GlobalArray, RegistersItsReplicaHostSideOnly) {
  pg::Runtime rt(pg::Topology::cluster(2, 2),
                 m::CostParams::hps_cluster());
  const auto registered = [&] {
    return std::vector<const pg::Replica*>(rt.replicas().begin(),
                                           rt.replicas().end());
  };
  pg::GlobalArray<std::uint64_t> a(rt, 8);
  {
    pg::GlobalArray<std::uint32_t> b(rt, 5);
    // Construction order: the digest and the flip draws depend on it.
    EXPECT_EQ(registered(),
              (std::vector<const pg::Replica*>{&a.replica(), &b.replica()}));
  }
  EXPECT_EQ(registered(), std::vector<const pg::Replica*>{&a.replica()});
  // SPMD code iterates the registry in place, so the runtime's own SPMD
  // threads may not register.
  EXPECT_THROW(rt.run([&](pg::ThreadCtx&) {
                 pg::GlobalArray<std::uint64_t> c(rt, 4);
               }),
               std::logic_error);
  EXPECT_EQ(registered(), std::vector<const pg::Replica*>{&a.replica()});
  // Another runtime's SPMD thread is host side for this one.
  pg::Runtime other(pg::Topology::cluster(1, 2),
                    m::CostParams::hps_cluster());
  other.run([&](pg::ThreadCtx& ctx) {
    if (ctx.id() == 0) pg::GlobalArray<std::uint64_t> c(rt, 4);
  });
  EXPECT_EQ(registered(), std::vector<const pg::Replica*>{&a.replica()});
}

TEST(GlobalArray, ExactDivision) {
  pg::Runtime rt(pg::Topology::cluster(1, 4),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> a(rt, 8);
  EXPECT_EQ(a.block_size(), 2u);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(a.local_size(t), 2u);
}

TEST(GlobalArray, GetPutAcrossThreads) {
  pg::Runtime rt(pg::Topology::cluster(2, 2),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> a(rt, 16);
  rt.run([&](pg::ThreadCtx& ctx) {
    // Each thread writes id into every cell of the NEXT thread's block.
    const int peer = (ctx.id() + 1) % 4;
    for (std::size_t i = a.block_begin(peer); i < a.block_end(peer); ++i)
      a.put(ctx, i, static_cast<std::uint64_t>(ctx.id()));
    ctx.barrier();
    // My block should hold my predecessor's id.
    const std::uint64_t expect =
        static_cast<std::uint64_t>((ctx.id() + 3) % 4);
    for (std::size_t i = a.block_begin(ctx.id()); i < a.block_end(ctx.id());
         ++i)
      EXPECT_EQ(a.get(ctx, i), expect);
    ctx.barrier();
  });
}

TEST(GlobalArray, RemoteAccessCostsMoreThanLocal) {
  pg::Runtime rt(pg::Topology::cluster(2, 1),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> a(rt, 8);
  std::array<double, 2> cost{};
  rt.run([&](pg::ThreadCtx& ctx) {
    const double t0 = ctx.now_ns();
    if (ctx.id() == 0) {
      a.get(ctx, 0);  // local
    } else {
      a.get(ctx, 0);  // remote (owner thread 0, other node)
    }
    cost[static_cast<std::size_t>(ctx.id())] = ctx.now_ns() - t0;
  });
  EXPECT_GT(cost[1], 10 * cost[0]);
}

TEST(GlobalArray, MemgetMemputBulk) {
  pg::Runtime rt(pg::Topology::cluster(2, 1),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> a(rt, 10);
  rt.run([&](pg::ThreadCtx& ctx) {
    if (ctx.id() == 0) {
      std::vector<std::uint64_t> vals = {7, 8, 9};
      a.memput(ctx, a.block_begin(1), 3, vals.data());
    }
    ctx.barrier();
    std::vector<std::uint64_t> got(3);
    a.memget(ctx, a.block_begin(1), 3, got.data());
    EXPECT_EQ(got, (std::vector<std::uint64_t>{7, 8, 9}));
    ctx.barrier();
  });
  EXPECT_GT(rt.net().total_messages(), 0u);
}

TEST(GlobalArray, PutMinIsMonotone) {
  pg::Runtime rt(pg::Topology::cluster(1, 4),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> a(rt, 4);
  rt.run([&](pg::ThreadCtx& ctx) {
    if (ctx.id() == 0) a.put(ctx, 0, 1000);
    ctx.barrier();
    // All threads race min-writes; the smallest must win.
    a.put_min(ctx, 0, static_cast<std::uint64_t>(100 - ctx.id()));
    ctx.barrier();
    EXPECT_EQ(a.get(ctx, 0), 97u);
    ctx.barrier();
  });
}

TEST(GlobalArray, LocalSpanViewsDistinctBlocks) {
  pg::Runtime rt(pg::Topology::cluster(1, 3),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> a(rt, 9);
  rt.run([&](pg::ThreadCtx& ctx) {
    auto blk = a.local_span(ctx.id());
    for (auto& x : blk) x = static_cast<std::uint64_t>(ctx.id());
    ctx.barrier();
  });
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(a.raw(i), i / 3);
}

TEST(GlobalArray, SixteenByteRecords) {
  struct Rec {
    std::uint64_t a, b;
  };
  pg::Runtime rt(pg::Topology::cluster(1, 2),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<Rec> arr(rt, 4);
  rt.run([&](pg::ThreadCtx& ctx) {
    auto blk = arr.local_span(ctx.id());
    for (auto& r : blk) r = {static_cast<std::uint64_t>(ctx.id()), 7};
    ctx.barrier();
  });
  EXPECT_EQ(arr.raw(0).a, 0u);
  EXPECT_EQ(arr.raw(3).a, 1u);
  EXPECT_EQ(arr.raw(3).b, 7u);
}

TEST(GlobalArray, RaceOnPutMinFromManyThreads) {
  pg::Runtime rt(pg::Topology::cluster(2, 4),
                 m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> a(rt, 1);
  a.store_relaxed(0, UINT64_MAX);
  rt.run([&](pg::ThreadCtx& ctx) {
    for (int i = 0; i < 1000; ++i)
      a.put_min(ctx, 0,
                static_cast<std::uint64_t>(1000 * (ctx.id() + 1) - i));
    ctx.barrier();
  });
  EXPECT_EQ(a.load_relaxed(0), 1u);  // thread 0's last write: 1000*1-999
}

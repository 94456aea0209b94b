// Unit tests for the machine models: cost parameters, memory model,
// network model, NIC drain, counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "machine/cost_params.hpp"
#include "machine/memory_model.hpp"
#include "machine/network_model.hpp"

namespace m = pgraph::machine;

TEST(CostParams, PresetsAreSane) {
  const auto hps = m::CostParams::hps_cluster();
  EXPECT_GT(hps.net_latency_ns, hps.mem_latency_ns);
  EXPECT_GT(hps.net_small_msg_sw_ns, 0.0);
  EXPECT_EQ(hps.preset, "hps-cluster");

  const auto ib = m::CostParams::infiniband_ddr3();
  // Section III: network latency ~190ns vs DRAM ~9ns -> ratio > 20.
  EXPECT_GT(ib.net_latency_ns / ib.mem_latency_ns, 20.0);
}

TEST(MemoryModel, SequentialCostIsLatencyPlusBandwidth) {
  const auto p = m::CostParams::hps_cluster();
  m::MemoryModel mm(p);
  EXPECT_DOUBLE_EQ(mm.seq_ns(0), p.mem_latency_ns);
  EXPECT_DOUBLE_EQ(mm.seq_ns(1000),
                   p.mem_latency_ns + 1000 * p.mem_inv_bw_ns_per_byte);
}

TEST(MemoryModel, RandomAccessCacheResident) {
  const auto p = m::CostParams::hps_cluster();
  m::MemoryModel mm(p);
  // Working set of one line: one miss, everything else hits.
  const double t = mm.random_ns(100, p.cache_line_bytes, 8);
  const double expected = p.mem_latency_ns + 99 * p.cache_hit_ns +
                          100 * 8 * p.mem_inv_bw_ns_per_byte;
  EXPECT_NEAR(t, expected, 1e-9);
}

TEST(MemoryModel, RandomAccessLargeWorkingSetMostlyMisses) {
  const auto p = m::CostParams::hps_cluster();
  m::MemoryModel mm(p);
  const std::size_t ws = p.cache_bytes * 100;
  const double t = mm.random_ns(1000, ws, 8);
  // ~99% misses.
  EXPECT_GT(t, 0.9 * 1000 * p.mem_latency_ns);
}

TEST(MemoryModel, SmallerWorkingSetIsNeverSlower) {
  const auto p = m::CostParams::hps_cluster();
  m::MemoryModel mm(p);
  double prev = 1e300;
  for (std::size_t ws = 1ull << 30; ws >= 1024; ws /= 2) {
    const double t = mm.random_ns(100000, ws, 8);
    EXPECT_LE(t, prev + 1e-6) << "working set " << ws;
    prev = t;
  }
}

TEST(MemoryModel, ZeroAccessesCostNothing) {
  m::MemoryModel mm(m::CostParams::hps_cluster());
  EXPECT_DOUBLE_EQ(mm.random_ns(0, 1 << 20, 8), 0.0);
  EXPECT_DOUBLE_EQ(mm.compute_ns(0), 0.0);
}

TEST(NetworkModel, MessageCosts) {
  const auto p = m::CostParams::hps_cluster();
  m::NetworkModel net(p, 4);
  EXPECT_DOUBLE_EQ(net.msg_service_ns(0), p.net_overhead_ns);
  EXPECT_DOUBLE_EQ(net.msg_wire_ns(100),
                   p.net_overhead_ns + p.net_latency_ns +
                       100 * p.net_inv_bw_ns_per_byte);
}

TEST(NetworkModel, FineGetIsARoundTripAndCounts) {
  const auto p = m::CostParams::hps_cluster();
  m::NetworkModel net(p, 4);
  m::NetTally tally(4);
  const double t = net.fine_get_ns(tally, 0, 1, 8);
  net.fold(tally);
  // Two wire traversals plus two software handlers.
  EXPECT_GT(t, 2 * p.net_latency_ns + 2 * p.net_small_msg_sw_ns);
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.fine_messages(), 2u);
  EXPECT_GT(net.total_bytes(), 8u);
}

TEST(NetworkModel, BulkPutIsCheaperPerByteThanFinePuts) {
  const auto p = m::CostParams::hps_cluster();
  m::NetworkModel net(p, 2);
  m::NetTally tally(2);
  const double bulk = net.bulk_put_ns(tally, 0, 1, 8000);
  double fine = 0;
  for (int i = 0; i < 1000; ++i) fine += net.fine_put_ns(tally, 0, 1, 8);
  EXPECT_LT(bulk, fine / 10);
}

TEST(NetworkModel, LocalBulkIsFree) {
  m::NetworkModel net(m::CostParams::hps_cluster(), 2);
  m::NetTally tally(2);
  EXPECT_DOUBLE_EQ(net.bulk_put_ns(tally, 1, 1, 1 << 20), 0.0);
  net.fold(tally);
  EXPECT_EQ(net.total_messages(), 0u);
}

TEST(NetworkModel, DrainReturnsBusiestNodeAndResets) {
  const auto p = m::CostParams::hps_cluster();
  m::NetworkModel net(p, 4);
  m::NetTally tally(4);
  // Hammer node 3 from node 0.
  for (int i = 0; i < 10; ++i) net.fine_put_ns(tally, 0, 3, 8);
  net.fold(tally);
  const double d1 = net.drain_nic_max_ns();
  EXPECT_GT(d1, 0.0);
  const double d2 = net.drain_nic_max_ns();
  EXPECT_DOUBLE_EQ(d2, 0.0);
}

TEST(NetworkModel, HotReceiverAccruesMoreThanBalanced) {
  const auto p = m::CostParams::hps_cluster();
  // All senders target node 0.
  m::NetworkModel hot(p, 8);
  m::NetTally hot_tally(8);
  for (int srcn = 1; srcn < 8; ++srcn)
    for (int i = 0; i < 10; ++i) hot.fine_put_ns(hot_tally, srcn, 0, 8);
  hot.fold(hot_tally);
  // Balanced all-to-all of the same volume.
  m::NetworkModel bal(p, 8);
  m::NetTally bal_tally(8);
  int count = 0;
  for (int srcn = 0; srcn < 8 && count < 70; ++srcn)
    for (int dstn = 0; dstn < 8 && count < 70; ++dstn) {
      if (srcn == dstn) continue;
      bal.fine_put_ns(bal_tally, srcn, dstn, 8);
      ++count;
    }
  bal.fold(bal_tally);
  EXPECT_GT(hot.drain_nic_max_ns(), 1.5 * bal.drain_nic_max_ns());
}

TEST(NetworkModel, TalliesOnTwoNodesFoldIntoOneDrain) {
  const auto p = m::CostParams::hps_cluster();
  m::NetworkModel net(p, 3);
  // Two threads, on nodes 0 and 1, both send fine puts to node 2.
  m::NetTally a(3);
  m::NetTally b(3);
  constexpr int kPutsA = 40;
  constexpr int kPutsB = 25;
  for (int i = 0; i < kPutsA; ++i) net.fine_put_ns(a, 0, 2, 8);
  for (int i = 0; i < kPutsB; ++i) net.fine_put_ns(b, 1, 2, 8);
  // Nothing reaches the model before the fold.
  EXPECT_EQ(net.total_messages(), 0u);
  net.fold(a);
  net.fold(b);
  EXPECT_EQ(a.msgs, 0u);
  EXPECT_FALSE(a.nic_dirty);
  EXPECT_EQ(net.total_messages(), std::uint64_t{kPutsA + kPutsB});
  EXPECT_EQ(net.fine_messages(), std::uint64_t{kPutsA + kPutsB});

  std::vector<m::NetworkModel::NicDrain> per_node(3);
  const double mx = net.drain_nic_ns(per_node.data());
  // Each put accrues its truncated NIC service once per end.
  const std::uint64_t svc = static_cast<std::uint64_t>(
      p.nic_small_msg_svc_ns + 24.0 * p.net_inv_bw_ns_per_byte);
  const m::NetworkModel::NicDrain& hot = per_node[2];
  EXPECT_EQ(hot.msgs, std::uint64_t{kPutsA + kPutsB});
  EXPECT_DOUBLE_EQ(hot.service_ns,
                   static_cast<double>(svc * (kPutsA + kPutsB)));
  // The congestion factor sees the summed message count, not either
  // tally's alone.
  const double factor =
      std::min(p.nic_congestion_cap,
               1.0 + static_cast<double>(kPutsA + kPutsB) /
                         p.nic_burst_capacity);
  EXPECT_DOUBLE_EQ(hot.factor, factor);
  EXPECT_DOUBLE_EQ(hot.congested_ns, hot.service_ns * factor);
  EXPECT_EQ(per_node[0].msgs, std::uint64_t{kPutsA});
  EXPECT_EQ(per_node[1].msgs, std::uint64_t{kPutsB});
  EXPECT_DOUBLE_EQ(mx, hot.congested_ns);
  // Folding an emptied tally adds nothing.
  net.fold(a);
  EXPECT_EQ(net.total_messages(), std::uint64_t{kPutsA + kPutsB});
  EXPECT_DOUBLE_EQ(net.drain_nic_max_ns(), 0.0);
}

#include "machine/exchange_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace pgraph::machine {

namespace {

/// Bounds-check a node index from the plan: assert in debug builds, clamp
/// with a diagnostic in release builds (a malformed plan must not turn
/// into an out-of-range indexing).
inline std::int32_t checked_node(std::int32_t v, int nodes,
                                 const char* what) {
  if (v >= 0 && v < nodes) return v;
  assert(!"exchange_sim: node index out of range");
  std::fprintf(stderr,
               "exchange_sim: %s %d out of range [0, %d); clamping\n", what,
               static_cast<int>(v), nodes);
  return v < 0 ? 0 : nodes - 1;
}

}  // namespace

double exchange_duration_ns(const ExchangePlan& plan,
                            const std::vector<std::int32_t>& thread_node,
                            int nodes, double latency_ns,
                            ExchangeNodeStats* node_stats) {
  ExchangeScratch scratch;
  return exchange_duration_ns(plan, thread_node, nodes, latency_ns,
                              node_stats, scratch);
}

double exchange_duration_ns(const ExchangePlan& plan,
                            const std::vector<std::int32_t>& thread_node,
                            int nodes, double latency_ns,
                            ExchangeNodeStats* node_stats,
                            ExchangeScratch& scratch) {
  assert(plan.size() == thread_node.size());
  const std::size_t nthreads = std::min(plan.size(), thread_node.size());

  if (node_stats != nullptr)
    std::fill(node_stats, node_stats + nodes, ExchangeNodeStats{});

  std::size_t max_steps = 0;
  std::size_t total_msgs = 0;
  for (const auto& lst : plan) {
    max_steps = std::max(max_steps, lst.size());
    total_msgs += lst.size();
  }
  if (total_msgs == 0) return 0.0;
  if (nodes <= 0) {
    assert(!"exchange_sim: messages posted with no nodes");
    std::fprintf(stderr,
                 "exchange_sim: %zu messages but nodes=%d; ignoring plan\n",
                 total_msgs, nodes);
    return 0.0;
  }

  // Sender side: serialize each node's messages on its send NIC, visiting
  // threads step-by-step (step k of every thread before step k+1).
  std::vector<double>& send_free = scratch.send_free;
  send_free.assign(static_cast<std::size_t>(nodes), 0.0);
  std::vector<ExchangeInFlight>& inflight = scratch.inflight;
  inflight.clear();
  inflight.reserve(total_msgs);
  double sender_finish = 0.0;
  for (std::size_t step = 0; step < max_steps; ++step) {
    for (std::size_t thr = 0; thr < nthreads; ++thr) {
      if (step >= plan[thr].size()) continue;
      const ExchangeMsg& m = plan[thr][step];
      const std::int32_t src =
          checked_node(thread_node[thr], nodes, "thread_node");
      const double depart = send_free[src] + m.service_ns;
      send_free[src] = depart;
      sender_finish = std::max(sender_finish, depart);
      if (node_stats != nullptr) {
        ExchangeNodeStats& s = node_stats[src];
        s.send_busy_ns += m.service_ns;
        s.send_finish_ns = std::max(s.send_finish_ns, depart);
        ++s.msgs_out;
      }
      // A dropped message burned its send slot but never arrives.
      if (m.dropped) continue;
      const std::int32_t dst = checked_node(m.dst_node, nodes, "dst_node");
      inflight.push_back(
          {depart + latency_ns + m.extra_delay_ns, dst, m.service_ns});
    }
  }

  // Receiver side: each node's receive NIC serves messages in arrival order.
  std::sort(inflight.begin(), inflight.end(),
            [](const ExchangeInFlight& a, const ExchangeInFlight& b) {
              return a.arrival < b.arrival;
            });
  std::vector<double>& recv_free = scratch.recv_free;
  recv_free.assign(static_cast<std::size_t>(nodes), 0.0);
  double recv_finish = 0.0;
  for (const ExchangeInFlight& m : inflight) {
    double start = std::max(recv_free[m.dst_node], m.arrival);
    recv_free[m.dst_node] = start + m.service;
    recv_finish = std::max(recv_finish, recv_free[m.dst_node]);
    if (node_stats != nullptr) {
      ExchangeNodeStats& s = node_stats[m.dst_node];
      s.recv_busy_ns += m.service;
      s.recv_finish_ns = std::max(s.recv_finish_ns, recv_free[m.dst_node]);
      ++s.msgs_in;
    }
  }

  return std::max(sender_finish, recv_finish);
}

}  // namespace pgraph::machine

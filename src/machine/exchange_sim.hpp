#pragma once

#include <cstdint>
#include <vector>

#include "machine/cost_params.hpp"

namespace pgraph::machine {

/// One message of a collective's exchange phase.
struct ExchangeMsg {
  std::int32_t dst_node = 0;
  double service_ns = 0.0;  ///< NIC occupancy o + b/B for this message
  std::uint32_t wire_bytes = 0;   ///< payload + header (retransmit pricing)
  double extra_delay_ns = 0.0;    ///< fault-injected in-flight delay
  bool dropped = false;           ///< fault-injected loss: the sender still
                                  ///< occupies its NIC, nothing arrives
};

/// Per-thread ordered send list for one exchange phase (issue order matters:
/// this is exactly what the `circular` optimization changes).
using ExchangePlan = std::vector<std::vector<ExchangeMsg>>;

/// Event-sweep simulation of one exchange phase of a collective
/// (steps 5.1-5.5 of Algorithm 2 in the paper).
///
/// Model:
///  - Each node has one send NIC and one receive NIC.
///  - The messages issued by the t threads of a node are serialized on the
///    node's send NIC, interleaved step-by-step in thread order (thread 0's
///    k-th message, thread 1's k-th message, ..., then step k+1).
///  - A message departs when the send NIC has pushed it, arrives
///    `latency_ns` later, and then occupies the receive NIC of the target
///    node for its service time; the receive NIC serves messages in arrival
///    order.
///  - The phase completes when every NIC is idle.
///
/// This reproduces the congestion effect the paper describes in Section V:
/// with the identity schedule (every thread sends to peer 0, then 1, ...)
/// all s messages of step k arrive at node k/t within a small window, so
/// the hot receive NIC drains ~s messages while others idle, roughly
/// doubling the phase relative to the circular schedule (i, i+1, ...,
/// i+s-1 mod s) where every step is a balanced permutation.
///
/// Per-node occupancy of one exchange phase (tracer counter tracks).
struct ExchangeNodeStats {
  double send_busy_ns = 0.0;   ///< total send-NIC occupancy
  double recv_busy_ns = 0.0;   ///< total receive-NIC occupancy
  double send_finish_ns = 0.0; ///< when the send NIC went idle
  double recv_finish_ns = 0.0; ///< when the receive NIC went idle
  std::uint64_t msgs_out = 0;
  std::uint64_t msgs_in = 0;
};

/// A message between its departure and its delivery (the sweep's
/// receive-side event).
struct ExchangeInFlight {
  double arrival;
  std::int32_t dst_node;
  double service;
};

/// Working storage of one sweep.  A caller that prices many exchange
/// phases (the runtime, at every exchange barrier) keeps one and passes it
/// in, so the sweep reuses its capacity instead of allocating.
struct ExchangeScratch {
  std::vector<double> send_free;
  std::vector<double> recv_free;
  std::vector<ExchangeInFlight> inflight;
};

/// `thread_node[i]` maps thread i to its node.  Returns the phase duration.
/// When `node_stats` is non-null it must point at `nodes` entries, which
/// are overwritten with the per-node occupancy breakdown.
///
/// Node indices (`thread_node[i]` and each message's `dst_node`) are
/// validated against [0, nodes): a malformed plan asserts in debug builds
/// and is clamped with a stderr diagnostic in release builds instead of
/// silently indexing out of range.
double exchange_duration_ns(const ExchangePlan& plan,
                            const std::vector<std::int32_t>& thread_node,
                            int nodes, double latency_ns,
                            ExchangeNodeStats* node_stats,
                            ExchangeScratch& scratch);

/// As above, with scratch storage of its own.
double exchange_duration_ns(const ExchangePlan& plan,
                            const std::vector<std::int32_t>& thread_node,
                            int nodes, double latency_ns,
                            ExchangeNodeStats* node_stats = nullptr);

}  // namespace pgraph::machine

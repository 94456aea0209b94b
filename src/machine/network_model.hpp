#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "machine/cost_params.hpp"

namespace pgraph::machine {

/// NIC occupancy and message count accrued on one node.
struct NicCount {
  std::uint64_t service_ns = 0;
  std::uint64_t msgs = 0;
};

/// One SPMD thread's shared-resource charges since the last barrier.
///
/// Only the owning thread writes it, so a charge touches no cache line
/// another thread writes.  The barrier completion step folds every tally
/// into the shared models while all threads are parked
/// (NetworkModel::fold for the network part; the runtime adds `bus_ns`
/// to its per-node bus accumulator).  Each accrual truncates its ns to an
/// integer before adding, and integer sums do not depend on order, so the
/// folded totals are the same however the threads' charges interleaved.
struct NetTally {
  NetTally() = default;
  explicit NetTally(int nodes) : nic(static_cast<std::size_t>(nodes)) {}

  /// Count one message priced elsewhere (an exchange message or a
  /// modeled retransmission) so the model's counters stay complete.
  void count_message(std::size_t b) {
    ++msgs;
    bytes += b;
  }

  /// Messages, bytes and the fine-grained subset.  Every NIC accrual also
  /// counts a message, so `msgs == 0` means the tally holds nothing but
  /// possibly `bus_ns`.
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fine_msgs = 0;
  /// DRAM-bus ns on the thread's own node (which cannot change within a
  /// superstep: a shrink happens only in the completion step).
  std::uint64_t bus_ns = 0;
  /// Some entry of `nic` is nonzero (a fine or bulk operation wrote it).
  bool nic_dirty = false;
  /// Per-node NIC occupancy and message counts.
  std::vector<NicCount> nic;
};

/// LogGP-flavoured network cost model with per-node NIC serialization.
///
/// Three properties of the paper's platform are modeled:
///
///  1. A message of b bytes costs the *sender* `o + b/B` of NIC occupancy
///     and arrives `L` later; the *receiver* NIC is then occupied for
///     `o + b/B` to deliver it.
///  2. The threads of one node share the node's NIC, so their messages are
///     serialized ("when blocking communication common in compiled code is
///     used, the messages from the t threads on one node are serialized",
///     Section III).  We account this with per-node service accumulators
///     that are drained at each BSP superstep boundary (barrier): the
///     superstep cannot end before the busiest NIC has pushed/delivered all
///     of its traffic.
///  3. Fine-grained (per-element) PGAS accesses additionally pay a software
///     handling cost per message (`net_small_msg_sw_ns`) — the compiled-code
///     overhead the paper's naive implementation suffers from.
///
/// Order-sensitivity of the collectives' exchange loops (the `circular`
/// optimization) is handled one level up by ExchangeSchedule, which uses the
/// `msg_service_ns` / `msg_wire_ns` primitives from this class.
///
/// Thread safety: the accrual functions are const and write only the
/// caller's NetTally, which belongs to one SPMD thread; the model's own
/// accumulators and counters are plain integers written only by fold()
/// and the drain, from the barrier completion step, while every SPMD
/// thread is parked.  The simulated threads never contend on the model.
class NetworkModel {
 public:
  NetworkModel(const CostParams& p, int nodes);

  int nodes() const { return nodes_; }

  /// --- primitive message costs --------------------------------------

  /// NIC occupancy (service time) for one message of `bytes`: o + b/B.
  double msg_service_ns(std::size_t bytes) const {
    return p_->net_overhead_ns +
           static_cast<double>(bytes) * p_->net_inv_bw_ns_per_byte;
  }

  /// End-to-end wire time of one message: o + L + b/B.
  double msg_wire_ns(std::size_t bytes) const {
    return msg_service_ns(bytes) + p_->net_latency_ns;
  }

  /// --- fine-grained (per-element) operations -------------------------

  /// Every operation below accrues its NIC service on both nodes and its
  /// message counts into the calling thread's tally `t`, which must have
  /// been made for this model's node count.

  /// Blocking remote read round trip: small request out, `bytes` reply back,
  /// plus software handling on both ends.  Returns the latency to add to the
  /// *calling thread's* clock.
  double fine_get_ns(NetTally& t, int src_node, int dst_node,
                     std::size_t bytes) const;

  /// One-sided remote write of `bytes` (blocking until injected).
  double fine_put_ns(NetTally& t, int src_node, int dst_node,
                     std::size_t bytes) const;

  /// --- coalesced bulk operations --------------------------------------

  /// One-sided bulk put (upc_memput after coalescing / RDMA-capable).
  /// Returns sender-side occupancy.
  double bulk_put_ns(NetTally& t, int src_node, int dst_node,
                     std::size_t bytes) const;

  /// Blocking bulk get (upc_memget): full round trip for the caller.
  double bulk_get_ns(NetTally& t, int src_node, int dst_node,
                     std::size_t bytes) const;

  /// --- superstep fold and drain ----------------------------------------

  /// Add `t`'s network charges to the model and zero them (`bus_ns` is
  /// left alone: the bus belongs to the runtime).  Called by the runtime
  /// from the barrier completion step, before the drain.  A tally that
  /// accrued nothing costs one compare, and its per-node array is only
  /// scanned when a fine or bulk operation wrote it.
  void fold(NetTally& t) {
    if (t.msgs == 0) return;
    msgs_ += t.msgs;
    bytes_ += t.bytes;
    fine_msgs_ += t.fine_msgs;
    t.msgs = t.bytes = t.fine_msgs = 0;
    if (t.nic_dirty) fold_nic(t);
  }

  /// Per-node NIC drain breakdown of one superstep (see drain_nic_ns).
  struct NicDrain {
    double service_ns = 0.0;    ///< raw accumulated NIC occupancy
    double congested_ns = 0.0;  ///< service_ns * congestion factor
    double factor = 1.0;        ///< applied congestion factor
    std::uint64_t msgs = 0;     ///< messages this node handled
  };

  /// Max over nodes of NIC service accumulated since the last drain, then
  /// reset.  Called by the runtime inside each barrier: the returned value
  /// lower-bounds the duration of the superstep that just ended.  Bursty
  /// nodes pay a congestion factor (1 + msgs/capacity), capped.
  double drain_nic_max_ns() { return drain_nic_ns(nullptr); }

  /// As drain_nic_max_ns, but when `out` is non-null additionally writes
  /// the per-node breakdown into out[0..nodes) — the tracer's per-node NIC
  /// utilization counters come from here.
  double drain_nic_ns(NicDrain* out);

  /// --- counters (monotonic, never reset; as of the last fold) ----------
  std::uint64_t total_messages() const { return msgs_; }
  std::uint64_t total_bytes() const { return bytes_; }
  std::uint64_t fine_messages() const { return fine_msgs_; }

  const CostParams& params() const { return *p_; }

 private:
  /// Nanoseconds are accumulated as integers, truncated per accrual.
  static void accrue(NetTally& t, int node, double ns,
                     std::uint64_t nmsgs = 1);
  /// The per-node half of fold().
  void fold_nic(NetTally& t);

  const CostParams* p_;
  int nodes_;
  std::vector<NicCount> nic_;
  std::uint64_t msgs_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fine_msgs_ = 0;
};

}  // namespace pgraph::machine

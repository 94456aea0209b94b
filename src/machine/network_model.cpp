#include "machine/network_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace pgraph::machine {

NetworkModel::NetworkModel(const CostParams& p, int nodes)
    : p_(&p), nodes_(nodes), nic_(static_cast<std::size_t>(nodes)) {
  assert(nodes >= 1);
}

void NetworkModel::accrue(NetTally& t, int node, double ns,
                          std::uint64_t nmsgs) {
  assert(static_cast<std::size_t>(node) < t.nic.size());
  NicCount& n = t.nic[static_cast<std::size_t>(node)];
  n.service_ns += static_cast<std::uint64_t>(ns);
  n.msgs += nmsgs;
  t.nic_dirty = true;
}

double NetworkModel::fine_get_ns(NetTally& t, int src_node, int dst_node,
                                 std::size_t bytes) const {
  assert(src_node != dst_node);
  // Request: ~16B header; reply: header + payload.  The requester blocks
  // for the full round trip plus software handling at both ends.
  const std::size_t req = 16;
  const std::size_t rep = 16 + bytes;
  const double sw = p_->net_small_msg_sw_ns;
  const double rt = msg_wire_ns(req) + sw + msg_wire_ns(rep) + sw;
  // NIC-side: message-rate limited, not software limited (the software
  // handler cost is paid by the issuing/serving threads' clocks).
  const double nic = 2 * (p_->nic_small_msg_svc_ns +
                          static_cast<double>(req + rep) / 2.0 *
                              p_->net_inv_bw_ns_per_byte);
  accrue(t, src_node, nic, 2);
  accrue(t, dst_node, nic, 2);
  t.msgs += 2;
  t.fine_msgs += 2;
  t.bytes += req + rep;
  return rt;
}

double NetworkModel::fine_put_ns(NetTally& t, int src_node, int dst_node,
                                 std::size_t bytes) const {
  assert(src_node != dst_node);
  const std::size_t msg = 16 + bytes;
  const double sw = p_->net_small_msg_sw_ns;
  const double nic = p_->nic_small_msg_svc_ns +
                     static_cast<double>(msg) * p_->net_inv_bw_ns_per_byte;
  accrue(t, src_node, nic);
  accrue(t, dst_node, nic);
  t.msgs += 1;
  t.fine_msgs += 1;
  t.bytes += msg;
  // Blocking until injected: the sender pays its own occupancy plus the
  // handler overhead; delivery completes asynchronously.
  return msg_service_ns(msg) + sw;
}

double NetworkModel::bulk_put_ns(NetTally& t, int src_node, int dst_node,
                                 std::size_t bytes) const {
  if (src_node == dst_node) return 0.0;  // local copies are charged as memory
  const double svc = msg_service_ns(bytes);
  accrue(t, src_node, svc);
  accrue(t, dst_node, svc);
  t.count_message(bytes);
  return svc;
}

double NetworkModel::bulk_get_ns(NetTally& t, int src_node, int dst_node,
                                 std::size_t bytes) const {
  if (src_node == dst_node) return 0.0;
  const std::size_t req = 16;
  accrue(t, src_node, msg_service_ns(req) + msg_service_ns(bytes));
  accrue(t, dst_node, msg_service_ns(req) + msg_service_ns(bytes));
  t.msgs += 2;
  t.bytes += req + bytes;
  return msg_wire_ns(req) + msg_wire_ns(bytes);
}

void NetworkModel::fold_nic(NetTally& t) {
  assert(t.nic.size() == nic_.size());
  for (std::size_t i = 0; i < nic_.size(); ++i) {
    nic_[i].service_ns += t.nic[i].service_ns;
    nic_[i].msgs += t.nic[i].msgs;
    t.nic[i] = NicCount{};
  }
  t.nic_dirty = false;
}

double NetworkModel::drain_nic_ns(NicDrain* out) {
  double mx = 0.0;
  for (int i = 0; i < nodes_; ++i) {
    NicCount& n = nic_[static_cast<std::size_t>(i)];
    const std::uint64_t v = std::exchange(n.service_ns, 0);
    const std::uint64_t c = std::exchange(n.msgs, 0);
    const double factor =
        std::min(p_->nic_congestion_cap,
                 1.0 + static_cast<double>(c) / p_->nic_burst_capacity);
    const double congested = static_cast<double>(v) * factor;
    if (out != nullptr)
      out[i] = {static_cast<double>(v), congested, factor, c};
    mx = std::max(mx, congested);
  }
  return mx;
}

}  // namespace pgraph::machine

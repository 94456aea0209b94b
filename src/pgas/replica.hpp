#pragma once

#include <cstddef>

#include "fault/fault.hpp"
#include "machine/phase_stats.hpp"
#include "pgas/runtime.hpp"
#include "pgas/topology.hpp"

namespace pgraph::pgas {

/// One buddy-replication pass, called collectively (every SPMD thread) by
/// checkpointing algorithms at their checkpoint boundaries.
///
/// Each node mirrors its successor's GlobalArray partitions: thread t
/// snapshots its blocks of every registered ReplicaSite into the arrays'
/// mirrors and ships the bytes to prev_live_node(node(t)) — the node that
/// will promote them if node(t) dies.  Honest accounting: the local
/// read+write of the snapshot is charged as streamed memory, the shipment
/// as an exchange message to the buddy's leader thread, both on the
/// modeled clock.
///
/// No-op unless a fault plan with loss_at > 0 or a memory-flip plan is
/// attached (mirrors are the scrubber's heal source, so bit-flip plans
/// keep them fresh too), so zero-loss runs stay bit-identical to
/// fault-free ones (the invariance rule of docs/ROBUSTNESS.md).
inline void replicate_to_buddy(ThreadCtx& ctx) {
  Runtime& rt = ctx.runtime();
  fault::FaultInjector* finj = rt.fault_injector();
  if (finj == nullptr || !(finj->config().loss_enabled() ||
                           finj->config().mem_flips_enabled()))
    return;
  const Topology& topo = ctx.topo();
  if (topo.live_node_count() < 2) return;
  // Both early-outs above depend only on process-global state, so they are
  // taken uniformly — safe to fingerprint after them.
#ifdef PGRAPH_CHECK_ACCESS
  {
    auto& cv = analysis::ConformanceVerifier::instance();
    if (cv.enabled())
      cv.note_collective(ctx.id(),
                         cv.site_id(analysis::CollOp::Replicate, nullptr),
                         /*arg_sig=*/0);
  }
#endif

  const int me = ctx.id();
  std::size_t bytes = 0;
  for (ReplicaSite* site : rt.replica_sites()) {
    // A refused seal means corruption landed since the scrub compare: the
    // old mirror stays authoritative, and the flag below turns into a
    // detection + recovery event at the next barrier completion.
    if (!site->replica_snapshot_thread(me)) rt.note_corruption();
    bytes += site->replica_thread_bytes(me);
  }
  // Local half: stream the blocks out of DRAM and into the mirror.
  ctx.mem_seq(2 * bytes, machine::Cat::Comm);
  finj->count(&fault::FaultCounters::replica_bytes, bytes);

  // Mirrors are complete in memory once every thread passes this barrier;
  // declare them promotable *before* the exchange so a loss striking the
  // shipment barrier itself can still shrink onto fresh mirrors.
  ctx.barrier();
  if (me == 0) {
    rt.mark_replicas_valid();
    finj->count(&fault::FaultCounters::replications);
  }

  // Network half: ship this thread's partition bytes to the buddy node.
  const int buddy = topo.prev_live_node(ctx.node());
  if (buddy >= 0 && buddy != ctx.node() && bytes > 0)
    ctx.post_exchange_msg(topo.leader_of_node(buddy), bytes);
  ctx.exchange_barrier();
}

}  // namespace pgraph::pgas

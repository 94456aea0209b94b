#include "pgas/replica.hpp"

#include <cstring>
#include <stdexcept>

#include "fault/fault.hpp"
#include "machine/phase_stats.hpp"
#include "pgas/digest.hpp"
#include "pgas/runtime.hpp"
#include "pgas/topology.hpp"

namespace pgraph::pgas {

Replica::Replica(ReplicaSet& set, unsigned char* data, std::size_t elem_bytes,
                 const partition::Partitioning& part)
    : set_(&set),
      data_(data),
      elem_(elem_bytes),
      part_(&part),
      sums_(static_cast<std::size_t>(part.num_threads())) {
  ThreadCtx* c = current_ctx();
  if (c != nullptr && &c->runtime().replicas() == &set)
    throw std::logic_error(
        "GlobalArray constructed on an SPMD thread of its own runtime; "
        "arrays are constructed host-side");
  set.replicas_.push_back(this);
  set.covered_ = false;
}

Replica::~Replica() {
  std::erase(set_->replicas_, this);
  set_->covered_ = false;
}

std::uint64_t Replica::sum(const unsigned char* base, int thr) const {
  return chunk_digest(part_->part_begin(thr),
                      base + part_->part_begin(thr) * elem_, elem_,
                      part_->local_size(thr));
}

bool Replica::snapshot(int thr) {
  // Verify before sealing: a fault landing between the scrub compare and
  // this snapshot must not be copied into the repair source.  The old
  // mirror (a coherent earlier seal) stays intact on refusal.
  if (!partition_clean(thr)) return false;
  std::call_once(mirror_once_,
                 [this] { mirror_.resize(part_->size() * elem_); });
  std::memcpy(slice(mirror_.data(), thr), slice(data_, thr),
              thread_bytes(thr));
  // Seal the mirror: the checksum rides the snapshot stream (the bytes are
  // already in cache), so it adds no modeled cost — and promotion and
  // heals validate against it before ever trusting the mirror again.
  Sums& s = sums_[idx(thr)];
  s.mirror = sum(mirror_.data(), thr);
  s.mirror_valid = true;
  return true;
}

void Replica::restore(int thr) {
  if (mirror_.empty()) return;  // never snapshotted: nothing to do
  std::memcpy(slice(data_, thr), slice(mirror_.data(), thr),
              thread_bytes(thr));
  // The partition now equals the sealed mirror; keep a live baseline in
  // sync so the next scrub pass does not flag the restore as corruption.
  Sums& s = sums_[idx(thr)];
  if (s.part_valid && s.mirror_valid) s.part = s.mirror;
}

std::uint64_t Replica::digest() const {
  const std::size_t n = part_->size();
  return mix64(chunk_digest(0, data_, elem_, n) ^ n);
}

void Replica::note(int thr, std::size_t i, const void* oldv,
                   const void* newv) {
  Sums& s = sums_[idx(thr)];
  if (s.part_valid)
    s.part += digest_delta(part_->slot_of(i), oldv, newv, elem_);
}

bool Replica::partition_clean(int thr) const {
  const Sums& s = sums_[idx(thr)];
  return !s.part_valid || sum(data_, thr) == s.part;
}

bool Replica::mirror_ok(int thr) const {
  const Sums& s = sums_[idx(thr)];
  return !s.mirror_valid || sum(mirror_.data(), thr) == s.mirror;
}

Replica::ScrubStep Replica::scrub(int thr) {
  ScrubStep st{thread_bytes(thr)};
  if (st.walked == 0 || !scrubbed_) return {};
  Sums& s = sums_[idx(thr)];
  const std::uint64_t now = sum(data_, thr);
  if (!s.part_valid) {
    s.part = now;
    s.part_valid = true;
    return st;
  }
  if (now == s.part) return st;
  st.detected = true;
  if (s.mirror_valid && mirror_ok(thr)) {
    restore(thr);  // the live baseline becomes the mirror's checksum
    st.healed = true;
  } else {
    s.part_valid = false;
  }
  return st;
}

std::size_t Replica::rebaseline(int thr) {
  Sums& s = sums_[idx(thr)];
  if (!s.part_valid) return 0;
  s.part = sum(data_, thr);
  return thread_bytes(thr);
}

std::span<unsigned char> Replica::flip_target(int thr, bool mirror) {
  if (mirror ? mirror_.empty() : !scrubbed_) return {};
  return {slice(mirror ? mirror_.data() : data_, thr), thread_bytes(thr)};
}

std::uint64_t ReplicaSet::digest() const {
  std::uint64_t d = 0;
  for (const Replica* r : replicas_) d = mix64(d ^ r->digest());
  return d;
}

void ReplicaSet::apply_flips(fault::FaultInjector& inj, std::uint64_t epoch) {
  const fault::FaultConfig& cfg = inj.config();
  // Every flippable byte range, array by array and each array's threads
  // in id order: the draws below index into this enumeration.
  std::vector<std::span<unsigned char>> targets;
  std::size_t total = 0;
  for (Replica* r : replicas_) {
    for (int t = 0; t < r->part_->num_threads(); ++t) {
      const std::span<unsigned char> sp =
          r->flip_target(t, cfg.mem_flip_mirror);
      if (sp.empty()) continue;
      targets.push_back(sp);
      total += sp.size();
    }
  }
  if (total == 0) return;
  for (int k = 0; k < cfg.mem_flips; ++k) {
    // Two independent sub-draws per flip: the victim byte (uniform over
    // every flippable byte) and the bit within it.
    std::uint64_t off = inj.mem_flip_word(epoch, k, 0) % total;
    const int bit = static_cast<int>(inj.mem_flip_word(epoch, k, 1) & 7);
    for (const std::span<unsigned char> sp : targets) {
      if (off < sp.size()) {
        sp[off] ^= static_cast<unsigned char>(1u << bit);
        break;
      }
      off -= sp.size();
    }
  }
  inj.count(&fault::FaultCounters::mem_flips,
            static_cast<std::uint64_t>(cfg.mem_flips));
}

ReplicaSet::Promotion ReplicaSet::promote(const Topology& topo, int lost) {
  // Visit each array's partition of each thread the lost node hosts.
  const auto each = [&](auto&& f) {
    for (int t = 0; t < topo.total_threads(); ++t)
      if (topo.node_of(t) == lost)
        for (Replica* r : replicas_) f(*r, t);
  };
  Promotion p;
  each([&](const Replica& r, int t) {
    p.bytes += r.thread_bytes(t);
    p.poisoned = p.poisoned || !r.mirror_ok(t);
  });
  // The dead node's partitions reappear as the checkpoint-time copies the
  // buddy holds.
  if (!p.poisoned) each([](Replica& r, int t) { r.restore(t); });
  return p;
}

void replicate_to_buddy(ThreadCtx& ctx) {
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
  for (Replica* r : rt.replicas()) {
    // A refused seal means corruption landed since the scrub compare: the
    // old mirror stays authoritative, and the flag below turns into a
    // detection + recovery event at the next barrier completion.
    if (!r->snapshot(me)) rt.note_corruption();
    bytes += r->thread_bytes(me);
  }
  // Local half: stream the blocks out of DRAM and into the mirror.
  ctx.mem_seq(2 * bytes, machine::Cat::Comm);
  finj->count(&fault::FaultCounters::replica_bytes, bytes);

  // Mirrors are complete in memory once every thread passes this barrier;
  // declare them promotable *before* the exchange so a loss striking the
  // shipment barrier itself can still shrink onto fresh mirrors.
  ctx.barrier();
  if (me == 0) {
    rt.replicas().mark_covered();
    finj->count(&fault::FaultCounters::replications);
  }

  // Network half: ship this thread's partition bytes to the buddy node.
  const int buddy = topo.prev_live_node(ctx.node());
  if (buddy >= 0 && buddy != ctx.node() && bytes > 0)
    ctx.post_exchange_msg(topo.leader_of_node(buddy), bytes);
  ctx.exchange_barrier();
}

}  // namespace pgraph::pgas

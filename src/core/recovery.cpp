#include "core/recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "pgas/replica.hpp"

namespace pgraph::core {

using machine::Cat;

RecoveryLoop::RecoveryLoop(
    pgas::Runtime& rt, std::vector<pgas::GlobalArray<std::uint64_t>*> arrays,
    const char* kernel, int max_iters, int scrub_interval)
    : rt_(rt),
      arrays_(std::move(arrays)),
      kernel_(kernel),
      max_iters_(max_iters),
      scrub_every_(scrub_interval),
      ckpt_on_(rt.fault_injector() != nullptr &&
               (rt.fault_injector()->config().outage_every > 0 ||
                rt.fault_injector()->config().loss_enabled() ||
                rt.fault_injector()->config().mem_flips_enabled())) {
  if (scrub_every_ > 0)
    for (auto* a : arrays_) a->replica().set_scrubbed(true);
}

void RecoveryLoop::run(pgas::ThreadCtx& ctx, const Private& state,
                       const std::function<bool(int)>& step) {
  const int me = ctx.id();
  fault::FaultInjector* const finj = rt_.fault_injector();
  const std::size_t na = arrays_.size();

  // Per-thread checkpoint: this thread's block of every array, then its
  // private state (edge lists shrink under compaction, so a rollback must
  // restore them too).
  std::vector<std::vector<std::uint64_t>> ck(na + state.vectors.size());
  int ck_it = 0;
  bool ck_valid = false;
  // A save lands here first and replaces the snapshot only once sealed.
  std::vector<std::vector<std::uint64_t>> ck_stage;
  std::uint64_t seen_recovery = ckpt_on_ ? finj->recovery_events() : 0;
  // Bytes a checkpoint or a rollback moves.
  const auto state_bytes = [&] {
    std::size_t w = 0;
    for (const auto& c : ck) w += c.size();
    return w * sizeof(std::uint64_t);
  };

  int it = 0;
  // `executed` counts real trips (`it` rolls back with the checkpoint);
  // the hard cap keeps pathological fault plans from looping forever.  It
  // is computed in 64 bits: a cap near INT_MAX must not overflow.
  const std::int64_t hard_cap = 4 * std::int64_t{max_iters_} + 64;
  for (std::int64_t executed = 0;; ++it, ++executed) {
    // Every thread reaches the cap on the same trip: a collective throw.
    if (it >= max_iters_ || executed >= hard_cap)
      throw std::runtime_error(std::string(kernel_) +
                               ": exceeded iteration bound");

    // Scrub BEFORE the recovery poll: a heal regresses the partition to
    // checkpoint-time bytes and raises a recovery event, so the poll
    // below immediately rolls the private state back to the matching
    // snapshot -- the superstep never runs on a half-regressed view.
    bool scrubbed_now = false;
    if (scrub_every_ > 0 && executed % scrub_every_ == 0) {
      scrubbed_now = true;
      try {
        scrub(ctx);
      } catch (const fault::FaultError& fe) {
        // Corruption with no validated mirror: the baseline is
        // invalidated and a recovery event raised; continue on the
        // valid checkpoint (the poll below rolls back over clean
        // bytes).  Without a checkpoint the corruption is fatal.
        if (fe.kind() != fault::FaultKind::MemoryCorrupt || !ck_valid) throw;
      }
    }

    bool fresh_ckpt = false;
    if (ckpt_on_) {
      const std::uint64_t ev_now = finj->recovery_events();
      if (ev_now != seen_recovery && ck_valid) {
        // An outage window closed (or the runtime shrank after a
        // permanent node loss) since we last looked: the recent
        // superstep work is suspect, so every thread rolls back to the
        // last snapshot and re-runs over the surviving topology.
        for (std::size_t k = 0; k < na; ++k)
          std::ranges::copy(ck[k], arrays_[k]->local_span(me).begin());
        for (std::size_t k = na; k < ck.size(); ++k)
          *state.vectors[k - na] = ck[k];
        it = ck_it;
        for (coll::KeyCache* kc : state.key_caches) kc->invalidate_keys();
        ctx.mem_seq(state_bytes(), Cat::Copy);
        // The restore bypassed the incremental checksum: recompute the
        // scrub baseline over the freshly restored blocks.
        rebaseline(ctx);
        if (me == 0) finj->count(&fault::FaultCounters::rollbacks);
        ctx.barrier();  // restores visible before the next getd serves
      } else if (ev_now == seen_recovery &&
                 !finj->outage_active(ctx.epoch()) &&
                 (scrub_every_ == 0 || scrubbed_now)) {
        // With scrubbing on, only scrub-validated trips may seal new
        // checkpoints/mirrors: a flip is always *detected* before the
        // corrupt bytes could be re-snapshotted into the repair source.
        ck_stage.resize(na);
        std::size_t staged = 0;
        for (std::size_t k = 0; k < na; ++k) {
          auto blk = arrays_[k]->local_span(me);
          ck_stage[k].assign(blk.begin(), blk.end());
          staged += blk.size() * sizeof(std::uint64_t);
        }
        bool seal_ok = true;
        if (scrub_every_ > 0) {
          // Verify-before-seal: a flip can land on the scrub pass's own
          // barriers, after the compare but before this save.  Re-check
          // the staged copies against the maintained checksums in the
          // SAME barrier interval (flips only land at barrier completion,
          // so a verified stage is a clean stage), then agree collectively
          // before committing it over the old snapshot.
          for (auto* a : arrays_)
            if (!a->replica().partition_clean(me)) rt_.note_corruption();
          ctx.mem_seq(staged, Cat::Scrub);
          ctx.barrier();  // corruption flag -> recovery event, seen by all
          seal_ok = finj->recovery_events() == ev_now;
        }
        if (seal_ok) {
          for (std::size_t k = 0; k < na; ++k) ck[k].swap(ck_stage[k]);
          for (std::size_t k = na; k < ck.size(); ++k)
            ck[k] = *state.vectors[k - na];
          ck_it = it;
          ck_valid = true;
          ctx.mem_seq(state_bytes(), Cat::Copy);
          if (me == 0) finj->count(&fault::FaultCounters::checkpoints);
          fresh_ckpt = true;
        }
      }
      seen_recovery = ev_now;
    }

    try {
      // Buddy replication rides on checkpoint boundaries: mirror the
      // fresh snapshot's GlobalArray partitions onto each node's
      // predecessor (no-op unless a loss or flip plan is configured).
      if (fresh_ckpt) pgas::replicate_to_buddy(ctx);
      if (!step(it)) break;
    } catch (const fault::FaultError& fe) {
      // A permanent node loss surfaced collectively: the runtime already
      // promoted the buddy's mirrors and shrank the topology.  Roll back
      // to the last checkpoint (loop top) and re-run the superstep over
      // the survivors.  A mid-superstep D (e.g. partway through pointer
      // jumping) must not be continued, only rolled back -- without a
      // checkpoint the loss is unrecoverable.
      if (fe.kind() != fault::FaultKind::PermanentLoss || !ck_valid) throw;
      continue;
    }
  }
  if (me == 0) iterations_.store(it + 1, std::memory_order_relaxed);
}

void RecoveryLoop::scrub(pgas::ThreadCtx& ctx) {
  const int me = ctx.id();
  fault::FaultInjector* const finj = rt_.fault_injector();
  // Snapshot the unhealable counter BEFORE the entry barrier: between the
  // previous pass's visibility barrier and this one nobody mutates it, so
  // every thread reads the same value.  Reading it after the entry barrier
  // would race with fast threads already in their walk phase -- a slow
  // thread could observe their fetch_adds, conclude bad_total == bad0, and
  // skip the collective throw the rest of the pass takes (deadlock at the
  // next barrier).
  const std::uint64_t bad0 =
      scrub_unhealable_.load(std::memory_order_acquire);
  ctx.barrier();  // entry: prior-pass contributions quiescent
  std::size_t walked = 0;
  std::uint64_t det = 0;
  std::uint64_t heal = 0;
  std::uint64_t bad = 0;
  for (pgas::Replica* r : rt_.replicas()) {
    const pgas::Replica::ScrubStep st = r->scrub(me);
    walked += st.walked;
    det += st.detected;
    heal += st.healed;
    // No validated mirror: the repair is left to the checkpoint-rollback
    // path (the scrub event below triggers it).
    bad += st.detected && !st.healed;
    // Heal: one streamed read of the mirror plus a write of the block.
    if (st.healed) ctx.mem_seq(2 * st.walked, Cat::Scrub);
  }
  // The re-walk itself: a sequential stream over every scrubbed byte.
  if (walked > 0) ctx.mem_seq(walked, Cat::Scrub);
  if (det > 0) scrub_detected_.fetch_add(det, std::memory_order_acq_rel);
  if (heal > 0) scrub_healed_.fetch_add(heal, std::memory_order_acq_rel);
  if (bad > 0) scrub_unhealable_.fetch_add(bad, std::memory_order_acq_rel);
  ctx.barrier();  // every thread's contribution is visible
  const std::uint64_t bad_total =
      scrub_unhealable_.load(std::memory_order_acquire);
  if (me == 0) {
    const std::uint64_t d = scrub_detected_.load(std::memory_order_acquire);
    const std::uint64_t h = scrub_healed_.load(std::memory_order_acquire);
    if (finj != nullptr) {
      finj->count(&fault::FaultCounters::scrub_passes);
      if (d > scrub_seen_detected_)
        finj->count(&fault::FaultCounters::scrub_detected,
                    d - scrub_seen_detected_);
      if (h > scrub_seen_healed_)
        finj->count(&fault::FaultCounters::scrub_heals, h - scrub_seen_healed_);
      // One recovery event per pass that found anything: healed bytes are
      // checkpoint-time bytes and unhealable ones need the checkpoint
      // restore, so either way the loop must roll back.
      if (d > scrub_seen_detected_)
        finj->count(&fault::FaultCounters::scrub_events);
    }
    scrub_seen_detected_ = d;
    scrub_seen_healed_ = h;
  }
  // The scrub event is visible to every loop-top recovery poll after this.
  ctx.barrier();
  if (bad_total > bad0) {
    throw fault::FaultError(
        fault::FaultKind::MemoryCorrupt,
        "scrub detected partition corruption with no validated mirror "
        "(epoch " +
            std::to_string(ctx.epoch()) + ")");
  }
}

void RecoveryLoop::rebaseline(pgas::ThreadCtx& ctx) {
  std::size_t walked = 0;
  for (pgas::Replica* r : rt_.replicas()) walked += r->rebaseline(ctx.id());
  if (walked > 0) ctx.mem_seq(walked, Cat::Scrub);
}

}  // namespace pgraph::core

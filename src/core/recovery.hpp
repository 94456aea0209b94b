#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "collectives/context.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// Superstep supervisor of every collective kernel (docs/ROBUSTNESS.md,
/// "Checkpoint/restart").
///
/// The kernel hands run() its superstep body and the private state a
/// rollback must restore; the loop owns the rest: the iteration cap, the
/// periodic scrub of the kernel's arrays, the recovery-event poll with
/// rollback, verify-before-seal checkpoints, buddy replication at
/// checkpoint boundaries, and the re-run after a permanent node loss.
/// All threads checkpoint and roll back in lockstep: the recovery-event
/// counter (outages, node-loss shrinks, scrub detections) is written only
/// in barrier completion steps and every thread reads it at the same
/// program point.
class RecoveryLoop {
 public:
  /// One thread's state that a rollback restores besides its blocks of the
  /// kernel's arrays.
  struct Private {
    /// Restored by copy (for a list that only grows, e.g. MST's marked
    /// edges, the copy equals truncating it to its checkpoint length).
    std::vector<std::vector<std::uint64_t>*> vectors;
    /// Collective key caches derived from `vectors`, dropped on rollback.
    std::vector<coll::KeyCache*> key_caches;
  };

  /// Host side, before Runtime::run.  Each thread checkpoints its block of
  /// every array in `arrays` (`{&d}`, Wyllie's `{&nxt, &rnk}`); with
  /// `scrub_interval` > 0 they are scrubbed every `scrub_interval` real
  /// loop trips.  `kernel` names the caller in the iteration-cap error.
  RecoveryLoop(pgas::Runtime& rt,
               std::vector<pgas::GlobalArray<std::uint64_t>*> arrays,
               const char* kernel, int max_iters, int scrub_interval);
  // Every SPMD thread of the run holds its address.
  RecoveryLoop(const RecoveryLoop&) = delete;
  RecoveryLoop& operator=(const RecoveryLoop&) = delete;

  /// SPMD, every thread: call `step(it)` once per superstep until it
  /// returns false (a collective decision); the trip index `it` rolls back
  /// with the checkpoint (BFS's level).  Exceeding the iteration cap throws
  /// std::runtime_error on every thread.  With no recovery plan attached
  /// and scrubbing off this is a plain loop that charges nothing.
  void run(pgas::ThreadCtx& ctx, const Private& state,
           const std::function<bool(int)>& step);

  /// Supersteps of the converged run (rolled-back trips do not count).
  int iterations() const { return iterations_.load(); }

 private:
  /// Collective chunked scrubber: every thread re-walks its partitions of
  /// the scrubbed arrays (pgas::Replica::scrub) at streamed-memory cost
  /// (Cat::Scrub) and compares against the incrementally maintained
  /// checksums.  The first pass baselines; later passes detect.  A
  /// corrupt partition heals from its buddy mirror when the mirror
  /// checksum validates (charged as a read of the mirror plus a write of
  /// the block) — otherwise its baseline is dropped so the
  /// checkpoint-rollback path can restore it.
  /// Either outcome raises one scrub recovery event (feeding
  /// recovery_events(), so the poll rolls back), and an unhealable
  /// detection additionally throws FaultError{MemoryCorrupt} collectively.
  /// Costs three barriers per pass.
  void scrub(pgas::ThreadCtx& ctx);
  /// Re-baseline partition checksums from current bytes after an untracked
  /// bulk restore (checkpoint rollback), charging the re-walk to
  /// Cat::Scrub.  Free when no partition of the calling thread has a live
  /// baseline — runs without scrubbing are byte-identical.
  void rebaseline(pgas::ThreadCtx& ctx);

  pgas::Runtime& rt_;
  const std::vector<pgas::GlobalArray<std::uint64_t>*> arrays_;
  const char* const kernel_;
  const int max_iters_;
  const int scrub_every_;
  /// Outages, permanent loss or memory flips are in the fault plan.
  const bool ckpt_on_;
  std::atomic<int> iterations_{0};

  /// Scrub-pass outcome counters, monotone over the loop's life (threads
  /// snapshot them across the scrub barriers to compute per-pass deltas
  /// collectively).
  std::atomic<std::uint64_t> scrub_detected_{0};
  std::atomic<std::uint64_t> scrub_healed_{0};
  std::atomic<std::uint64_t> scrub_unhealable_{0};
  /// Thread 0's running totals (only touched between scrub barriers).
  std::uint64_t scrub_seen_detected_ = 0;
  std::uint64_t scrub_seen_healed_ = 0;
};

}  // namespace pgraph::core

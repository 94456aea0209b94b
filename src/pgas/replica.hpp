#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "partition/partitioning.hpp"

namespace pgraph::fault {
class FaultInjector;
}

namespace pgraph::pgas {

class ReplicaSet;
class ThreadCtx;
struct Topology;

/// Buddy mirror, at-rest integrity checksums and determinism digest of one
/// distributed array (docs/ROBUSTNESS.md).  GlobalArray<T> holds one over
/// its storage bytes; everything here walks storage order, so it is
/// partition-agnostic by construction.
///
/// The mirror is a lazily allocated second buffer: a snapshot copies one
/// thread's partition into it and a restore copies it back (the promotion a
/// shrink performs).  Bytes move here; the *cost* of the movement is
/// charged by the callers (replicate_to_buddy at checkpoints, the runtime's
/// shrink protocol at promotion, core::RecoveryLoop for scrubs), and
/// untouched mirrors cost nothing, preserving zero-loss invariance.
///
/// Scrub protocol: between scrub passes, every write to a scrubbed
/// partition either goes through a tracked commit point (note(), reached
/// through GlobalArray::integrity_note from the SetD/SetDMin apply loops)
/// or is followed by a rebaseline() (core::RecoveryLoop's checkpoint
/// rollback).  Untracked writes read as corruption — by design.
class Replica {
 public:
  /// Registers with `set`, which must not be iterating: std::logic_error
  /// when called from an SPMD thread of the set's runtime.  `data` holds
  /// part.size() elements of `elem_bytes` each, partition-major; both must
  /// outlive the replica.
  Replica(ReplicaSet& set, unsigned char* data, std::size_t elem_bytes,
          const partition::Partitioning& part);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Bytes of thread `thr`'s partition (what a snapshot or restore moves).
  std::size_t thread_bytes(int thr) const {
    return part_->local_size(thr) * elem_;
  }

  /// Copy thread `thr`'s partition into the mirror and seal its checksum.
  /// Returns false WITHOUT touching the old mirror when the partition no
  /// longer matches its maintained scrub checksum — a fault that landed
  /// after the scrub compare must never be sealed into the repair source.
  bool snapshot(int thr);
  /// Restore thread `thr`'s partition from the mirror (no-op if no
  /// snapshot was ever taken).
  void restore(int thr);

  /// Order-independent digest of the committed element state: the sum of
  /// per-element hashes keyed by storage slot, so any traversal order
  /// yields the same value.  Reads the data plainly: completion step (all
  /// SPMD threads parked) or host side only.
  std::uint64_t digest() const;

  /// --- at-rest integrity (scrub protocol) ------------------------------
  /// Opt the array into scrubbing.  Host-side only (races with SPMD scrub
  /// passes otherwise).
  void set_scrubbed(bool on) { scrubbed_ = on; }

  /// True iff thread `thr`'s partition has a live baseline checksum, i.e.
  /// its commit points must call note().
  bool tracking(int thr) const { return sums_[idx(thr)].part_valid; }
  /// O(1) checksum maintenance at a tracked commit point: the element at
  /// global index `i` (owned by thread `thr`) went from `oldv` to `newv`.
  /// No-op until a scrub pass baselined the partition.  Owner-thread only,
  /// like the apply loops that call it.  Deltas are keyed by STORAGE slot
  /// so they cancel against the chunk_digest re-walks, which run in storage
  /// order (identical to the global index under identity layouts).
  void note(int thr, std::size_t i, const void* oldv, const void* newv);
  /// True when thread `thr`'s partition bytes still match the maintained
  /// checksum (vacuously true before a scrub baseline).  Side-effect free;
  /// callers charge the re-walk.  Checkpointing loops verify with this in
  /// the same barrier interval as the snapshot copy, so a fault landing on
  /// the scrub pass's own barriers cannot slip into the rollback source.
  bool partition_clean(int thr) const;

  /// What one scrub step over a thread's partition did.
  struct ScrubStep {
    std::size_t walked = 0;  ///< bytes re-walked (0: nothing to verify)
    bool detected = false;   ///< bytes changed outside any commit point
    bool healed = false;     ///< ... and were copied back from the mirror
  };
  /// One scrub step over thread `thr`'s partition of a scrubbed array: the
  /// first call records the baseline checksum, later calls re-walk the
  /// bytes and compare.  A mismatch heals from the mirror when the mirror
  /// checksum validates (copy back, re-baseline); otherwise the baseline
  /// is dropped, so the next pass records a fresh one instead of comparing
  /// against state the caller's rollback is about to restore.
  ScrubStep scrub(int thr);
  /// Recompute thread `thr`'s baseline from current bytes (after an
  /// untracked bulk restore, e.g. a checkpoint rollback).  Returns the
  /// bytes re-walked: 0 without a live baseline.
  std::size_t rebaseline(int thr);

 private:
  friend class ReplicaSet;

  static std::size_t idx(int thr) { return static_cast<std::size_t>(thr); }
  unsigned char* slice(unsigned char* base, int thr) const {
    return base + part_->part_begin(thr) * elem_;
  }
  /// Checksum of thread `thr`'s slice of `base` (the data or the mirror).
  std::uint64_t sum(const unsigned char* base, int thr) const;
  /// The sealed mirror slice still matches its checksum (true when nothing
  /// was sealed: a restore is then a no-op anyway).
  bool mirror_ok(int thr) const;
  /// Bit-flip target of the memory-fault injector: thread `thr`'s mirror
  /// slice (empty until snapshotted), or its resident partition, empty
  /// unless scrubbed — flips into undefended memory would be silently
  /// undetectable, which is outside the threat model the test matrix
  /// certifies.
  std::span<unsigned char> flip_target(int thr, bool mirror);

  ReplicaSet* set_;
  unsigned char* data_;
  std::size_t elem_;
  const partition::Partitioning* part_;
  std::vector<unsigned char> mirror_;  ///< empty until the first snapshot
  /// Threads snapshot disjoint slices concurrently; only the one-time
  /// allocation needs to be serialized.
  std::once_flag mirror_once_;
  bool scrubbed_ = false;
  /// Per-thread checksums.  The partition sum is owner-thread private
  /// between barriers; the mirror sum is written by its thread at snapshot
  /// and read across barriers (completion step, own heals) — barrier
  /// ordering suffices, no atomics needed.
  struct Sums {
    std::uint64_t part = 0;
    std::uint64_t mirror = 0;
    bool part_valid = false;
    bool mirror_valid = false;
  };
  std::vector<Sums> sums_;
};

/// A Runtime's registry of replicas: one per live GlobalArray, in
/// construction order.  Registration is host-side (checked), so the set is
/// stable while run() executes and SPMD code iterates it in place.  Owns
/// the walks over every array: the state digest, the seeded memory bit
/// flips and a shrink's verify-then-restore promotion.
class ReplicaSet {
 public:
  ReplicaSet() = default;
  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  auto begin() const { return replicas_.begin(); }
  auto end() const { return replicas_.end(); }

  /// False until a full replication pass covered the current set (reset
  /// whenever the set changes); the shrink protocol refuses to promote
  /// stale or missing mirrors.  Marked by thread 0 between the barriers of
  /// replicate_to_buddy, read in completion steps.
  bool promotable() const { return replicas_.empty() || covered_; }
  void mark_covered() { covered_ = true; }

  /// Hash of every replica's committed state, combined in registration
  /// order (deterministic: arrays are constructed single-threaded), each
  /// one order-independent over its elements.  Completion step only.
  std::uint64_t digest() const;

  /// Apply the fault plan's seeded bit flips for `epoch` to the resident
  /// partitions of scrubbed arrays, or to the mirrors when the plan targets
  /// them, and count them.  Silent by construction: no cost, no checksum
  /// update — detection is the scrubber's job.  Completion step only.
  void apply_flips(fault::FaultInjector& inj, std::uint64_t epoch);

  /// The partitions of the threads `topo` places on node `lost`.
  struct Promotion {
    std::size_t bytes = 0;  ///< partition bytes verified (and restored)
    bool poisoned = false;  ///< a mirror failed its checksum: no restore
  };
  /// Validate every candidate mirror checksum before touching anything (a
  /// mirror that rotted since its snapshot must never be promoted: the
  /// bytes would silently poison the survivors), then restore them all.
  /// Completion step only, so the restores are ordered against every
  /// parked thread.
  Promotion promote(const Topology& topo, int lost);

 private:
  friend class Replica;

  std::vector<Replica*> replicas_;
  bool covered_ = false;
};

/// One buddy-replication pass, called collectively (every SPMD thread) by
/// checkpointing algorithms at their checkpoint boundaries.
///
/// Each node mirrors its successor's GlobalArray partitions: thread t
/// snapshots its partition of every registered array into the arrays'
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
void replicate_to_buddy(ThreadCtx& ctx);

}  // namespace pgraph::pgas
